#include "runtime/decode_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "quant/quantizer.h"
#include "util/rng.h"

namespace tender {

namespace {

/** Segments must tile the stacked input's rows exactly, in order. */
void
checkSegments(const Matrix &x, const std::vector<DecodeSegment> &segments)
{
    TENDER_CHECK(!segments.empty());
    int row = 0;
    for (const DecodeSegment &seg : segments) {
        TENDER_CHECK(seg.cache != nullptr);
        TENDER_CHECK(seg.rows > 0 && seg.row0 == row && seg.pos0 >= 0);
        row += seg.rows;
    }
    TENDER_CHECK(row == x.rows());
}

/** Phase stopwatch on the calling thread; no-op when `into` is null. */
class PhaseTimer
{
  public:
    explicit PhaseTimer(DecodePhaseTimes *into) : into_(into) { mark(); }

    void mark()
    {
        if (into_)
            t0_ = std::chrono::steady_clock::now();
    }

    void accumulate(double DecodePhaseTimes::*phase)
    {
        if (!into_)
            return;
        const auto t1 = std::chrono::steady_clock::now();
        into_->*phase +=
            std::chrono::duration<double, std::micro>(t1 - t0_).count();
        t0_ = t1;
    }

  private:
    DecodePhaseTimes *into_;
    std::chrono::steady_clock::time_point t0_;
};

using gemm_detail::forEachBand;
using gemm_detail::Int;

/** Query rows per register tile of the attention kernels below. */
constexpr int kRowTile = 4;

/**
 * Dots of R query rows (row-major, `dh` wide, from `q`) with columns
 * [0, n) of one channel-major panel (column x of channel c at
 * b[c * ld + x]): store(r, x, dot) receives each dot as the double sum
 * of tensor/gemm.h — from 0.0, adding double(q) * double(b) in
 * ascending channel. Register tiles of R x 32, 8 or 1 independent sums
 * vectorize across columns; every sum keeps its order.
 */
template <int R, class Store>
inline void
panelDots(const float *q, int dh, const float *b, int ld, int n,
          const Store &store)
{
    const auto tile = [&](auto cols, int x) {
        constexpr int W = decltype(cols)::value;
        double acc[R][W] = {};
        for (int c = 0; c < dh; ++c) {
            const float *bc = b + size_t(c) * size_t(ld) + size_t(x);
            double bv[W];
            for (int w = 0; w < W; ++w)
                bv[w] = double(bc[w]);
            for (int r = 0; r < R; ++r) {
                const double qv = double(q[size_t(r) * size_t(dh) + size_t(c)]);
                for (int w = 0; w < W; ++w)
                    acc[r][w] += qv * bv[w];
            }
        }
        for (int r = 0; r < R; ++r)
            for (int w = 0; w < W; ++w)
                store(r, x + w, acc[r][w]);
    };
    int x = 0;
    for (; x + 32 <= n; x += 32)
        tile(Int<32>{}, x);
    for (; x + 8 <= n; x += 8)
        tile(Int<8>{}, x);
    for (; x < n; ++x)
        tile(Int<1>{}, x);
}

/**
 * Softmax of panel row `row` over its unmasked columns [0, limit), in
 * place, replaying softmaxRowsRange's per-element arithmetic on them:
 * a masked column is -inf there and adds an exact +0.0, so visiting only
 * the unmasked ones gives the same bits. `e` holds at least `limit`
 * doubles.
 */
void
softmaxUnmasked(float *row, int limit, double *e)
{
    const float neg_inf = -std::numeric_limits<float>::infinity();
    float row_max = neg_inf;
    for (int j = 0; j < limit; ++j)
        row_max = std::max(row_max, row[j]);
    const bool skip_masked = std::isfinite(row_max);
    double denom = 0.0;
    for (int j = 0; j < limit; ++j) {
        e[j] = skip_masked && row[j] == neg_inf
            ? 0.0
            : std::exp(double(row[j]) - double(row_max));
        denom += e[j];
    }
    for (int j = 0; j < limit; ++j)
        row[j] = float(e[j] / denom);
}

/**
 * Output channels [c, c + NC) of probs * V for panel rows [i, i + R),
 * with V read in place from row-major pages of `bt` rows. Row r sums
 * only its unmasked keys [0, limit[r]), each as one double sum in
 * ascending key order; the rows share each V row's conversion up to
 * their smallest limit, and the accumulators stay in registers across V
 * rows.
 */
template <int R, int NC>
inline void
probsValueTile(const Matrix &probs, int i, const int *limit,
               const std::vector<const float *> &pages, int bt, int dh,
               int c, Matrix &out)
{
    double acc[R][NC] = {};
    int shared = limit[0];
    for (int r = 1; r < R; ++r)
        shared = std::min(shared, limit[r]);
    for (int x0 = 0; x0 < shared; x0 += bt) {
        const float *page = pages[size_t(x0 / bt)] + c;
        const int n = std::min(bt, shared - x0);
        for (int x = 0; x < n; ++x) {
            const float *vrow = page + size_t(x) * size_t(dh);
            double vv[NC];
            for (int q = 0; q < NC; ++q)
                vv[q] = double(vrow[q]);
            for (int r = 0; r < R; ++r) {
                const double p = double(probs.rowPtr(i + r)[x0 + x]);
                for (int q = 0; q < NC; ++q)
                    acc[r][q] += p * vv[q];
            }
        }
    }
    for (int r = 0; r < R; ++r) {
        const float *prow = probs.rowPtr(i + r);
        for (int j = shared; j < limit[r]; ++j) {
            const float *vrow = pages[size_t(j / bt)] +
                size_t(j % bt) * size_t(dh) + size_t(c);
            const double p = double(prow[j]);
            for (int q = 0; q < NC; ++q)
                acc[r][q] += p * double(vrow[q]);
        }
        float *orow = out.rowPtr(i + r) + c;
        for (int q = 0; q < NC; ++q)
            orow[q] = float(acc[r][q]);
    }
}

} // namespace

Matrix
attentionFp32Panel(const Matrix &q, int heads, const KVPageView &kv,
                   int pos0)
{
    const int dh = q.cols();
    TENDER_CHECK(heads >= 1 && q.rows() % heads == 0);
    const int tnew = q.rows() / heads; ///< new tokens per head
    const int qrows = q.rows();        ///< panel rows (head-major)
    const int len = kv.rows;
    const int bt = kv.blockTokens;
    TENDER_CHECK(pos0 >= 0 && pos0 + tnew <= len && bt > 0);
    TENDER_CHECK(kv.keys.size() == kv.values.size() &&
                 int(kv.keys.size()) * bt >= len);
    // Panel row r is new token r % tnew of its head: it reads keys
    // [0, limit(r)) and nothing past its own position.
    const auto limit = [&](int r) { return pos0 + r % tnew + 1; };

    // Scaled scores, tile by tile off the channel-major K pages; a row
    // tile stops at its last row's last unmasked key.
    const float inv_sqrt = 1.f / std::sqrt(float(dh));
    Matrix probs(qrows, len);
    forEachBand<kRowTile>(0, qrows, [&](auto rows, int i) {
        constexpr int R = decltype(rows)::value;
        int end = 0;
        for (int r = i; r < i + R; ++r)
            end = std::max(end, limit(r));
        for (int x0 = 0; x0 < end; x0 += bt)
            panelDots<R>(q.rowPtr(i), dh, kv.keys[size_t(x0 / bt)], bt,
                         std::min(bt, end - x0),
                         [&](int r, int x, double dot) {
                probs.rowPtr(i + r)[x0 + x] = float(dot) * inv_sqrt;
            });
    });
    std::vector<double> e(static_cast<size_t>(len));
    for (int r = 0; r < qrows; ++r)
        softmaxUnmasked(probs.rowPtr(r), limit(r), e.data());

    // probs * V over each row's unmasked keys, 32, 8 or 1 output
    // channels per tile.
    Matrix out(qrows, dh);
    forEachBand<kRowTile>(0, qrows, [&](auto rows, int i) {
        constexpr int R = decltype(rows)::value;
        int lim[R];
        for (int r = 0; r < R; ++r)
            lim[r] = limit(i + r);
        int c = 0;
        for (; c + 32 <= dh; c += 32)
            probsValueTile<R, 32>(probs, i, lim, kv.values, bt, dh, c, out);
        for (; c + 8 <= dh; c += 8)
            probsValueTile<R, 8>(probs, i, lim, kv.values, bt, dh, c, out);
        for (; c < dh; ++c)
            probsValueTile<R, 1>(probs, i, lim, kv.values, bt, dh, c, out);
    });
    return out;
}

Matrix
attentionFusedQuantPanel(const Matrix &q, int heads, const KVCodeView &keys,
                         const KVCodeView &values, int pos0,
                         const KernelContext &kc)
{
    const int dh = q.cols();
    TENDER_CHECK(heads >= 1 && q.rows() % heads == 0);
    const int tnew = q.rows() / heads; ///< new tokens per head
    const int qrows = q.rows();        ///< panel rows (head-major)
    const int len = keys.rows;
    TENDER_CHECK(values.rows == len &&
                 values.frozenRows == keys.frozenRows);
    TENDER_CHECK(keys.frozen.size() == values.frozen.size());
    TENDER_CHECK(pos0 >= 0 && pos0 + tnew <= len);

    // Quantize the query rows once per panel (per-row symmetric, at the
    // chunks' code width). A history shorter than one chunk has no frozen
    // codes to multiply against, so the integer machinery is skipped
    // entirely on that (short-history hot) path.
    IntMatrix qcodes, qshift;
    std::vector<float> qscale;
    if (!keys.frozen.empty()) {
        const int bits = keys.frozen.front()->bits;
        qcodes = IntMatrix(qrows, dh);
        qshift = IntMatrix(qrows, dh);
        qscale.resize(static_cast<size_t>(qrows));
        for (int r = 0; r < qrows; ++r) {
            qscale[size_t(r)] = scaleFor(rowAbsMax(q, r), bits);
            const float *src = q.rowPtr(r);
            int32_t *dst = qcodes.rowPtr(r);
            for (int c = 0; c < dh; ++c)
                dst[c] = quantizeValue(src[c], qscale[size_t(r)], bits);
        }
    }

    // The key bias is per-channel constant within a chunk, so its score
    // contribution is one fp dot per (query row, chunk) on the exact fp
    // query — the bias term carries no query quantization error. All of
    // them come from one pass of register tiles over the chunks' biases.
    const int n_frozen = int(keys.frozen.size());
    std::vector<double> qbias(size_t(qrows) * size_t(n_frozen));
    if (n_frozen > 0) {
        std::vector<float> bias_t(size_t(n_frozen) * size_t(dh));
        for (int f = 0; f < n_frozen; ++f) {
            const ChunkMeta &meta = keys.frozen[size_t(f)]->meta;
            TENDER_CHECK(meta.channels() == dh);
            for (int c = 0; c < dh; ++c)
                bias_t[size_t(c) * size_t(n_frozen) + size_t(f)] =
                    meta.bias[size_t(c)];
        }
        forEachBand<kRowTile>(0, qrows, [&](auto rows, int i) {
            panelDots<decltype(rows)::value>(
                q.rowPtr(i), dh, bias_t.data(), n_frozen, n_frozen,
                [&](int r, int f, double dot) {
                    qbias[size_t(i + r) * size_t(n_frozen) + size_t(f)] =
                        dot;
                });
        });
    }

    Matrix scores(qrows, len);
    // Frozen chunks: one integer panel per chunk, reading the key codes in
    // place, with the cross-group alpha-rescale folded into the query
    // codes: qshift[c] = qcode[c] * alpha^(G-1-g(c)). Integer exactness
    // makes the plain dot product of shifted codes equal the MSA
    // shift-accumulate A_G of Eq. 2 (core/msa_functional's discipline),
    // and the int32 partials are requantized across chunks through each
    // chunk's scale table: score = acc * qscale * s_last + q·bias.
    std::vector<int32_t> mult(static_cast<size_t>(dh));
    int k0 = 0;
    for (const QuantizedChunk *ch : keys.frozen) {
        const ChunkMeta &meta = ch->meta;
        TENDER_CHECK(meta.channels() == dh);
        // Frozen chunk pages are self-describing and immutable — whether
        // privately owned or COW-shared from a prefix-cache donor, a page
        // must present a complete rowChunk x headDim code panel (a shared
        // page that could differ in shape from a private one would mean a
        // partially frozen chunk leaked through adoptPrefix).
        TENDER_CHECK(ch->codes.rows() == keys.rowChunk &&
                     ch->codes.cols() == dh);
        const int g_count = meta.groups();
        const int64_t max_code = maxCode(ch->bits);
        int64_t max_shifted = 0;
        for (int c = 0; c < dh; ++c) {
            int64_t m = 1;
            for (int e = meta.group[size_t(c)]; e < g_count - 1; ++e)
                m *= keys.alpha;
            // The folded code magnitude (not just the multiplier) must fit
            // int32, or the qshift multiply below would wrap before
            // gemmInt8's accumulator check could see it.
            TENDER_CHECK_MSG(
                m * max_code <=
                    int64_t(std::numeric_limits<int32_t>::max()),
                "fused attention: alpha^(G-1) rescale (" << m << ") times "
                "code range (" << max_code << ") overflows int32");
            mult[size_t(c)] = int32_t(m);
            max_shifted = std::max(max_shifted, m * max_code);
        }
        for (int r = 0; r < qrows; ++r) {
            const int32_t *src = qcodes.rowPtr(r);
            int32_t *dst = qshift.rowPtr(r);
            for (int c = 0; c < dh; ++c)
                dst[c] = src[c] * mult[size_t(c)];
        }
        // Codes are bounded by construction (chunk codes by the quantizer,
        // shifted query codes by the fold above), so the kernel's
        // eligibility check needs no rescan of the immutable chunk pages.
        const IntMatrix panel =
            kc.gemmInt8(qshift, ch->codes, max_shifted, max_code);
        const double s_last = double(meta.scale[size_t(g_count - 1)]);
        const int rows = ch->codes.rows();
        const size_t f = size_t(k0 / keys.rowChunk);
        for (int r = 0; r < qrows; ++r) {
            const double qb = qbias[size_t(r) * size_t(n_frozen) + f];
            const int32_t *prow = panel.rowPtr(r);
            float *srow = scores.rowPtr(r) + k0;
            const double sq = double(qscale[size_t(r)]);
            for (int j = 0; j < rows; ++j)
                srow[j] = float(double(prow[j]) * sq * s_last + qb);
        }
        k0 += rows;
    }
    TENDER_CHECK(k0 == keys.frozenRows);
    // The reader's own chunk: exact fp dots against its fp32 rows (the
    // newest tokens see no query quantization error, matching the
    // dequantize path bit for bit on this tail), in register tiles over
    // a channel-major copy of at most one chunk. A row tile stops at its
    // last unmasked key.
    const int open = len - keys.frozenRows;
    TENDER_CHECK(open == 0 || (keys.open && values.open));
    if (open > 0) {
        std::vector<float> open_t(size_t(open) * size_t(dh));
        for (int j = 0; j < open; ++j)
            for (int c = 0; c < dh; ++c)
                open_t[size_t(c) * size_t(open) + size_t(j)] =
                    keys.open[size_t(j) * size_t(dh) + size_t(c)];
        forEachBand<kRowTile>(0, qrows, [&](auto rows, int i) {
            constexpr int R = decltype(rows)::value;
            int end = 0;
            for (int r = i; r < i + R; ++r)
                end = std::max(end, pos0 + (r % tnew) + 1 - keys.frozenRows);
            panelDots<R>(q.rowPtr(i), dh, open_t.data(), open,
                         std::min(open, end), [&](int r, int j, double dot) {
                scores.rowPtr(i + r)[keys.frozenRows + j] = float(dot);
            });
        });
    }

    // Scale and softmax each row in place over its unmasked columns,
    // replaying the oracle's kernel-chain arithmetic exactly
    // (softmaxUnmasked); the masked columns get the chain's +0.0
    // probabilities. Panel row r is new token r % tnew of its head, hence
    // the per-row-group causal limit.
    const float inv_sqrt = 1.f / std::sqrt(float(dh));
    std::vector<double> expv(static_cast<size_t>(len));
    for (int r = 0; r < qrows; ++r) {
        float *row = scores.rowPtr(r);
        const int limit = pos0 + (r % tnew) + 1;
        for (int j = 0; j < limit; ++j)
            row[j] *= inv_sqrt;
        softmaxUnmasked(row, limit, expv.data());
        std::fill(row + limit, row + len, 0.f);
    }
    const Matrix &probs = scores;

    // probs * V chunk by chunk on the V codes. Chunks are outermost; each
    // is dequantized once into `vdeq` when several panel rows read it,
    // while a one-row panel (one head, one new token: a plain decode step
    // without multi-query panels) reads each value once, so it
    // dequantizes in line instead of paying a store and a reload. Either
    // way each (row, channel) accumulator sees the exact per-element
    // arithmetic of the oracle in global row order — same dequantized
    // float values, same double accumulation chain — so given equal probs
    // the output matches the materialized-GEMM path, and every panel row
    // matches a heads=1 call bit for bit.
    Matrix out(qrows, dh);
    std::vector<double> acc(size_t(qrows) * size_t(dh), 0.0);
    std::vector<float> cs(static_cast<size_t>(dh));
    const bool stage = qrows > 1 && !values.frozen.empty();
    std::vector<double> vdeq(
        stage ? size_t(values.rowChunk) * size_t(dh) : 0);
    int v0 = 0;
    for (const QuantizedChunk *ch : values.frozen) {
        const ChunkMeta &meta = ch->meta;
        TENDER_CHECK(meta.channels() == dh);
        TENDER_CHECK(ch->codes.rows() == values.rowChunk);
        for (int c = 0; c < dh; ++c)
            cs[size_t(c)] = meta.scale[size_t(meta.group[size_t(c)])];
        const float *bias = meta.bias.data();
        const int rows = ch->codes.rows();
        if (!stage) {
            const float *prow = probs.rowPtr(0) + v0;
            for (int j = 0; j < rows; ++j) {
                const double w = double(prow[j]);
                const int32_t *code = ch->codes.rowPtr(j);
                for (int c = 0; c < dh; ++c)
                    acc[size_t(c)] += w *
                        double(float(code[c]) * cs[size_t(c)] + bias[c]);
            }
            v0 += rows;
            continue;
        }
        for (int j = 0; j < rows; ++j) {
            const int32_t *code = ch->codes.rowPtr(j);
            double *vrow = vdeq.data() + size_t(j) * size_t(dh);
            for (int c = 0; c < dh; ++c)
                vrow[c] = double(float(code[c]) * cs[size_t(c)] + bias[c]);
        }
        for (int r = 0; r < qrows; ++r) {
            const float *prow = probs.rowPtr(r) + v0;
            double *arow = acc.data() + size_t(r) * size_t(dh);
            for (int j = 0; j < rows; ++j) {
                const double w = double(prow[j]);
                const double *vrow = vdeq.data() + size_t(j) * size_t(dh);
                for (int c = 0; c < dh; ++c)
                    arow[c] += w * vrow[c];
            }
        }
        v0 += rows;
    }
    for (int r = 0; r < qrows; ++r) {
        const float *prow = probs.rowPtr(r) + v0;
        double *arow = acc.data() + size_t(r) * size_t(dh);
        for (int j = 0; j < open; ++j) {
            const double w = double(prow[j]);
            const float *vrow = values.open + size_t(j) * size_t(dh);
            for (int c = 0; c < dh; ++c)
                arow[c] += w * double(vrow[c]);
        }
        float *orow = out.rowPtr(r);
        for (int c = 0; c < dh; ++c)
            orow[c] = float(arow[c]);
    }
    return out;
}

Matrix
attentionHeadFusedQuant(const Matrix &q, const KVCodeView &keys,
                        const KVCodeView &values, int pos0,
                        const KernelContext &kc)
{
    return attentionFusedQuantPanel(q, 1, keys, values, pos0, kc);
}

Matrix
decodeBlockForward(const Matrix &x, int layer, const BlockWeights &w,
                   const ModelConfig &config,
                   const std::vector<DecodeSegment> &segments,
                   const DecodeOptions &options,
                   const std::vector<PreparedProjections> &projections,
                   const KernelContext &kc)
{
    checkSegments(x, segments);
    const int dh = config.headDim();
    const PreparedProjections fp32;
    TENDER_CHECK(projections.empty() || size_t(layer) < projections.size());
    const PreparedProjections &prepared =
        projections.empty() ? fp32 : projections[size_t(layer)];
    PhaseTimer timer(options.phases);
    // Every projection is one product over the stacked rows. Fp32
    // projections are row-local, so one GEMM computes every request's
    // result exactly. A quantizing scheme is NOT row-local — its row-chunk
    // decomposition derives scales from whole chunks — so the prepared
    // weight gets the segment boundaries and restarts its chunks at each,
    // keeping each request's quantization metadata a function of its own
    // rows (the admission-order/batch-size independence invariant).
    std::vector<int> segment_rows;
    for (const DecodeSegment &seg : segments)
        segment_rows.push_back(seg.rows);
    const auto project = [&](const Matrix &a, const Matrix &wm,
                             const std::unique_ptr<PreparedWeight> &pw) {
        return pw ? pw->matmulSegments(a, segment_rows) : kc.gemm(a, wm);
    };

    // Activations are released as soon as they are consumed, so a long
    // prefill step holds only what its next phase reads.
    Matrix ln1 = kc.layerNorm(x, w.ln1Gain, w.ln1Bias);
    Matrix xq = project(ln1, w.wq, prepared.wq);
    Matrix xk = project(ln1, w.wk, prepared.wk);
    Matrix xv = project(ln1, w.wv, prepared.wv);
    ln1 = Matrix();
    timer.accumulate(&DecodePhaseTimes::projectionsUs);

    // Per-segment K/V appends (a quantized cache freezes each chunk its
    // rows complete) are independent — each task touches only its own
    // cache.
    kc.parallelFor(0, int64_t(segments.size()), 1,
                   [&](int64_t s0, int64_t s1) {
        for (int64_t si = s0; si < s1; ++si) {
            const DecodeSegment &seg = segments[size_t(si)];
            seg.cache->appendRows(layer, xk, xv, seg.row0, seg.rows);
        }
    });
    timer.accumulate(&DecodePhaseTimes::appendUs);

    // Attention bands. Under the quantized-KV contract (runtime/
    // kv_cache.h) a query reads the chunks before its own as frozen codes
    // and its own chunk's rows in fp32, so a quantized segment's query
    // rows split at chunk boundaries into bands, each reading one history
    // [0, band end) — which also skips the masked columns past the band.
    // An fp32 history reads the same for every query, so an fp32 segment
    // is one band.
    struct Band
    {
        size_t seg; ///< owning segment
        int row0;   ///< first row in the stacked input
        int rows;
        int pos0;   ///< absolute position of the first row
    };
    std::vector<Band> bands;
    std::vector<size_t> first_band(segments.size() + 1);
    for (size_t si = 0; si < segments.size(); ++si) {
        first_band[si] = bands.size();
        const DecodeSegment &seg = segments[si];
        const KVCacheConfig &cc = seg.cache->config();
        const bool quantized = cc.mode == KVCacheMode::TenderQuantized;
        for (int r = 0; r < seg.rows;) {
            const int pos = seg.pos0 + r;
            const int n = quantized
                ? std::min(seg.rows - r,
                           cc.tender.rowChunk - pos % cc.tender.rowChunk)
                : seg.rows;
            bands.push_back({si, seg.row0 + r, n, pos});
            r += n;
        }
    }
    first_band[segments.size()] = bands.size();

    // Each (band, kv-head) history is read once — under grouped-query
    // attention several query heads share a kv head — in one of three
    // forms. An fp32 cache gives a page view and a quantized one on the
    // fused path a chunk-code view: pointer tables into the pool pages
    // (and the quantized cache's fp32 staging), built here on the calling
    // thread. Only the dequantize path copies, materializing the history
    // (frozen chunks memoized by the cache) in a (segment, kv-head)
    // fan-out, so no store's memo is materialized concurrently.
    //
    // Failure containment: a cache whose append faulted this step (see
    // KVCache::appendRows) may hold stores of uneven length, so its
    // history must not be read — every loop below skips failed
    // segments. Their attention rows stay zero (Matrix zero-initializes),
    // the batched projections still run over them (row-local, so garbage
    // rows influence nobody else's rows), and the scheduler retires the
    // owning request after the step. Co-scheduled segments compute
    // exactly what they would have computed in a fault-free run.
    const int kv_heads = config.kvHeads;
    enum class Read { Pages, Codes, Dequantize };
    struct HeadHistory
    {
        Read read = Read::Pages;
        KVPageView pages;          ///< fp32 cache
        KVCodeView kCodes, vCodes; ///< quantized cache, fused path
        Matrix k, v;               ///< quantized cache, dequantize path
    };
    std::vector<HeadHistory> hist(bands.size() * size_t(kv_heads));
    const auto readOf = [&](const DecodeSegment &seg) {
        if (seg.cache->config().mode == KVCacheMode::Fp32)
            return Read::Pages;
        return options.fusedQuantKv ? Read::Codes : Read::Dequantize;
    };
    const auto gather = [&](size_t si, int kvh) {
        const DecodeSegment &seg = segments[si];
        const Read read = readOf(seg);
        for (size_t b = first_band[si]; b < first_band[si + 1]; ++b) {
            const int last = bands[b].pos0 + bands[b].rows - 1;
            HeadHistory &hh = hist[b * size_t(kv_heads) + size_t(kvh)];
            hh.read = read;
            if (read == Read::Pages) {
                hh.pages = seg.cache->pageView(layer, kvh, last);
            } else if (read == Read::Codes) {
                hh.kCodes = seg.cache->keyView(layer, kvh, last);
                hh.vCodes = seg.cache->valueView(layer, kvh, last);
            } else {
                hh.k = seg.cache->keys(layer, kvh, last);
                hh.v = seg.cache->values(layer, kvh, last);
            }
        }
    };
    bool dequantize = false;
    for (size_t si = 0; si < segments.size(); ++si) {
        if (segments[si].cache->failed())
            continue;
        if (readOf(segments[si]) == Read::Dequantize) {
            dequantize = true;
            continue;
        }
        for (int kvh = 0; kvh < kv_heads; ++kvh)
            gather(si, kvh);
    }
    if (dequantize)
        kc.parallelFor(0, int64_t(segments.size()) * int64_t(kv_heads), 1,
                       [&](int64_t t0, int64_t t1) {
            for (int64_t t = t0; t < t1; ++t) {
                const size_t si = size_t(t) / size_t(kv_heads);
                if (!segments[si].cache->failed() &&
                    readOf(segments[si]) == Read::Dequantize)
                    gather(si, int(t % int64_t(kv_heads)));
            }
        });
    timer.accumulate(&DecodePhaseTimes::historyUs);

    // Attention stays per request (distinct KV histories). With MQ panels
    // on (the default), the fan-out is per (band, kv-head): the
    // nHeads/kvHeads query heads sharing a kv head run as one stacked
    // panel call, so each page or frozen chunk is read (and a chunk's
    // fold/scale work paid) once per kv head instead of once per query
    // head. Panels are row-local, so both fan-outs produce bit-identical
    // output; either way tasks write disjoint output tiles, so the
    // parallel fan-out is bit-reproducible with any worker count.
    Matrix attn(x.rows(), config.dModel);
    if (options.mqAttentionPanels) {
        const int group = config.nHeads / kv_heads;
        kc.parallelFor(0, int64_t(bands.size()) * int64_t(kv_heads), 1,
                       [&](int64_t t0, int64_t t1) {
            for (int64_t t = t0; t < t1; ++t) {
                const Band &band = bands[size_t(t) / size_t(kv_heads)];
                if (segments[band.seg].cache->failed())
                    continue;
                const int kvh = int(t % int64_t(kv_heads));
                const HeadHistory &hh = hist[size_t(t)];
                // Head-major query panel: rows [g*rows, (g+1)*rows) hold
                // query head kvh*group+g's new-token queries.
                Matrix qp(group * band.rows, dh);
                for (int g = 0; g < group; ++g) {
                    const int h = kvh * group + g;
                    for (int r = 0; r < band.rows; ++r) {
                        const float *src =
                            xq.rowPtr(band.row0 + r) + h * dh;
                        std::copy(src, src + dh,
                                  qp.rowPtr(g * band.rows + r));
                    }
                }
                const Matrix out = hh.read == Read::Pages
                    ? attentionFp32Panel(qp, group, hh.pages, band.pos0)
                    : hh.read == Read::Codes
                    ? attentionFusedQuantPanel(qp, group, hh.kCodes,
                                               hh.vCodes, band.pos0, kc)
                    : attentionPanelIncremental(qp, group, hh.k, hh.v,
                                                band.pos0, &kc);
                for (int g = 0; g < group; ++g) {
                    const int h = kvh * group + g;
                    for (int r = 0; r < band.rows; ++r)
                        std::copy(out.rowPtr(g * band.rows + r),
                                  out.rowPtr(g * band.rows + r) + dh,
                                  attn.rowPtr(band.row0 + r) + h * dh);
                }
            }
        });
    } else {
        kc.parallelFor(0, int64_t(bands.size()) * int64_t(config.nHeads), 1,
                       [&](int64_t t0, int64_t t1) {
            for (int64_t t = t0; t < t1; ++t) {
                const size_t bi = size_t(t) / size_t(config.nHeads);
                const Band &band = bands[bi];
                if (segments[band.seg].cache->failed())
                    continue;
                const int h = int(t % int64_t(config.nHeads));
                const int kvh = kvHeadOf(h, config.nHeads, config.kvHeads);
                const HeadHistory &hh =
                    hist[bi * size_t(kv_heads) + size_t(kvh)];
                const Matrix qh = headSlice(
                    xq.rowSlice(band.row0, band.row0 + band.rows), h, dh);
                const Matrix out = hh.read == Read::Pages
                    ? attentionFp32Panel(qh, 1, hh.pages, band.pos0)
                    : hh.read == Read::Codes
                    ? attentionHeadFusedQuant(qh, hh.kCodes, hh.vCodes,
                                              band.pos0, kc)
                    : attentionHeadIncremental(qh, hh.k, hh.v, band.pos0,
                                               &kc);
                for (int r = 0; r < out.rows(); ++r)
                    std::copy(out.rowPtr(r), out.rowPtr(r) + dh,
                              attn.rowPtr(band.row0 + r) + h * dh);
            }
        });
    }
    hist.clear();
    // The staged rows of chunks this step froze have been read for the
    // last time; drop them (a prefill's buffer shrinks back to one chunk).
    for (const DecodeSegment &seg : segments)
        seg.cache->trimStaging(layer);
    timer.accumulate(&DecodePhaseTimes::attentionUs);

    xq = Matrix();
    xk = Matrix();
    xv = Matrix();

    const Matrix xo =
        kc.axpby(1.f, project(attn, w.wo, prepared.wo), 1.f, x);
    attn = Matrix();
    // ln2 dies with the fc1 product, and the activation runs in place on
    // that product's buffer.
    Matrix h1 = project(kc.layerNorm(xo, w.ln2Gain, w.ln2Bias), w.wfc1,
                        prepared.wfc1);
    const Matrix hidden = config.family == Family::Bert
        ? kc.gelu(std::move(h1))
        : kc.relu(std::move(h1));
    const Matrix y =
        kc.axpby(1.f, project(hidden, w.wfc2, prepared.wfc2), 1.f, xo);
    timer.accumulate(&DecodePhaseTimes::projectionsUs);
    return y;
}

Matrix
decodeStep(SyntheticModel &model, const Matrix &x,
           const std::vector<DecodeSegment> &segments,
           const DecodeOptions &options,
           const std::vector<PreparedProjections> &projections,
           const KernelContext &kc)
{
    const ModelConfig &cfg = model.config();
    TENDER_REQUIRE(cfg.decoder,
                   "the decode runtime needs a causal decoder model");
    TENDER_CHECK(x.cols() == cfg.dModel);
    checkSegments(x, segments);
    Matrix h = x;
    for (int l = 0; l < cfg.nLayers; ++l)
        h = decodeBlockForward(h, l, model.blockWeights(l), cfg, segments,
                               options, projections, kc);
    if (options.phases)
        ++options.phases->steps;
    return h;
}

std::vector<PreparedProjections>
prepareProjections(SyntheticModel &model, const GemmScheme *scheme)
{
    std::vector<PreparedProjections> table;
    if (!scheme)
        return table;
    table.resize(size_t(model.config().nLayers));
    for (int l = 0; l < model.config().nLayers; ++l) {
        const BlockWeights &w = model.blockWeights(l);
        PreparedProjections &p = table[size_t(l)];
        p.wq = scheme->prepare(w.wq);
        p.wk = scheme->prepare(w.wk);
        p.wv = scheme->prepare(w.wv);
        p.wo = scheme->prepare(w.wo);
        p.wfc1 = scheme->prepare(w.wfc1);
        p.wfc2 = scheme->prepare(w.wfc2);
    }
    return table;
}

DecodeEngine::DecodeEngine(SyntheticModel &model,
                           const DecodeOptions &options)
    : model_(model), options_(options),
      cache_(model.config(), options.cache, options.pool),
      projections_(prepareProjections(model, options.scheme))
{
    TENDER_REQUIRE(model.config().decoder,
                   "the decode runtime needs a causal decoder model");
}

Matrix
DecodeEngine::prefill(const Matrix &prompt)
{
    TENDER_REQUIRE(cache_.length() == 0,
                   "prefill must run before any decode step");
    return step(prompt);
}

Matrix
DecodeEngine::step(const Matrix &x_new)
{
    TENDER_CHECK(x_new.rows() > 0 &&
                 x_new.cols() == model_.config().dModel);
    const KernelContext &kc =
        options_.kernels ? *options_.kernels : defaultKernels();
    std::vector<DecodeSegment> segments{
        {&cache_, 0, x_new.rows(), cache_.length()}};
    Matrix h = decodeStep(model_, x_new, segments, options_, projections_,
                          kc);
    // The single-request engine has no scheduler watching its cache, so
    // a latched append fault surfaces here, after the step completed on
    // every worker (the exception never crosses the pool boundary).
    if (cache_.failed())
        throw RequestFault(cache_.failReason(), cache_.failDetail());
    return h;
}

Vocab::Vocab(int vocab_size, int d_model, uint64_t seed)
{
    TENDER_REQUIRE(vocab_size > 0 && d_model > 0,
                   "Vocab needs positive vocab and model dims");
    Rng rng(seed);
    embedding_ = randomGaussian(vocab_size, d_model, rng);
    readout_ = randomGaussian(vocab_size, d_model, rng);
}

Matrix
Vocab::embed(int token) const
{
    TENDER_CHECK(token >= 0 && token < size());
    return embedding_.rowSlice(token, token + 1);
}

Matrix
Vocab::embedAll(const std::vector<int> &tokens) const
{
    TENDER_CHECK(!tokens.empty());
    Matrix out(int(tokens.size()), embedding_.cols());
    for (size_t i = 0; i < tokens.size(); ++i) {
        const Matrix row = embed(tokens[i]);
        std::copy(row.rowPtr(0), row.rowPtr(0) + row.cols(),
                  out.rowPtr(int(i)));
    }
    return out;
}

Matrix
Vocab::logits(const Matrix &hidden, int row, const KernelContext &kc) const
{
    TENDER_CHECK(row >= 0 && row < hidden.rows());
    return logits(hidden.rowSlice(row, row + 1), kc);
}

Matrix
Vocab::logits(const Matrix &hidden, const KernelContext &kc) const
{
    TENDER_CHECK(hidden.cols() == embedding_.cols());
    return kc.gemmTransposedB(hidden, readout_);
}

int
Vocab::argmax(const Matrix &logits)
{
    TENDER_CHECK(logits.rows() == 1 && logits.cols() > 0);
    const float *l = logits.rowPtr(0);
    int best = 0;
    for (int t = 1; t < logits.cols(); ++t)
        if (l[t] > l[best])
            best = t;
    return best;
}

int
Vocab::argmaxToken(const Matrix &hidden, int row,
                   const KernelContext &kc) const
{
    return argmax(logits(hidden, row, kc));
}

} // namespace tender
