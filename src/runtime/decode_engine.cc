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

/**
 * Fp32 multi-query attention panel: attentionHeadIncremental for `heads`
 * query heads sharing one kv history, stacked head-major like
 * attentionFusedQuantPanel. One scores GEMM / softmax / probs*V GEMM per
 * kv head instead of one per query head. The mask replays
 * causalMaskFrom's per-row -inf writes with the panel's row -> position
 * mapping (row r is new token r % t of its head); every kernel in the
 * chain is row-local, so each panel row is bit-identical to a heads=1
 * attentionHeadIncremental on that head alone — which keeps fp32-KV
 * decode bit-identical to prefill with MQ panels on or off.
 */
Matrix
attentionPanelIncremental(const Matrix &q, int heads, const Matrix &k,
                          const Matrix &v, int pos0,
                          const KernelContext &kc)
{
    TENDER_CHECK(heads >= 1 && q.rows() % heads == 0);
    TENDER_CHECK(q.cols() == k.cols() && k.rows() == v.rows());
    const int tnew = q.rows() / heads;
    TENDER_CHECK(pos0 + tnew <= k.rows());
    const float inv_sqrt = 1.f / std::sqrt(float(q.cols()));
    Matrix scores = kc.scale(kc.gemmTransposedB(q, k), inv_sqrt);
    const float neg_inf = -std::numeric_limits<float>::infinity();
    for (int r = 0; r < scores.rows(); ++r) {
        float *row = scores.rowPtr(r);
        for (int c = pos0 + (r % tnew) + 1; c < scores.cols(); ++c)
            row[c] = neg_inf;
    }
    return kc.gemm(kc.softmaxRows(scores), v);
}

} // namespace

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
        for (int r = 0; r < qrows; ++r) {
            // The key bias is per-channel constant within the chunk, so
            // its score contribution is one fp dot per (chunk, query row)
            // on the exact fp query — the bias term carries no query
            // quantization error.
            double qbias = 0.0;
            const float *qrow = q.rowPtr(r);
            for (int c = 0; c < dh; ++c)
                qbias += double(qrow[c]) * double(meta.bias[size_t(c)]);
            const int32_t *prow = panel.rowPtr(r);
            float *srow = scores.rowPtr(r) + k0;
            const double sq = double(qscale[size_t(r)]);
            for (int j = 0; j < rows; ++j)
                srow[j] = float(double(prow[j]) * sq * s_last + qbias);
        }
        k0 += rows;
    }
    TENDER_CHECK(k0 == keys.frozenRows);
    // The reader's own chunk: exact fp dot against its fp32 rows (the
    // newest tokens see no query quantization error, matching the
    // dequantize path bit for bit on this tail).
    const int open = len - keys.frozenRows;
    TENDER_CHECK(open == 0 || (keys.open && values.open));
    for (int r = 0; r < qrows; ++r) {
        const float *qrow = q.rowPtr(r);
        float *srow = scores.rowPtr(r) + keys.frozenRows;
        for (int j = 0; j < open; ++j) {
            const float *krow = keys.open + size_t(j) * size_t(dh);
            double dot = 0.0;
            for (int c = 0; c < dh; ++c)
                dot += double(qrow[c]) * double(krow[c]);
            srow[j] = float(dot);
        }
    }

    // Scale / causal-mask / softmax in place, replaying the oracle's
    // kernel-chain arithmetic exactly: the chain scales every column, sets
    // columns past the row's position to -inf, then softmaxes the row —
    // masked columns contribute exp(-inf) = +0.0 to the denominator (an
    // exact identity) and come out as +0.0 probabilities, so skipping them
    // here and writing 0 directly is bit-identical while saving the three
    // intermediate matrices per panel call. Each exp is computed once and
    // kept for the normalize pass. Panel row r is new token r % tnew of
    // its head, hence the per-row-group causal limit.
    const float inv_sqrt = 1.f / std::sqrt(float(dh));
    std::vector<double> expv(static_cast<size_t>(len));
    for (int r = 0; r < qrows; ++r) {
        float *row = scores.rowPtr(r);
        const int limit = std::min(len, pos0 + (r % tnew) + 1);
        float row_max = -std::numeric_limits<float>::infinity();
        for (int j = 0; j < limit; ++j) {
            row[j] *= inv_sqrt;
            row_max = std::max(row_max, row[j]);
        }
        double denom = 0.0;
        for (int j = 0; j < limit; ++j) {
            expv[size_t(j)] = std::exp(double(row[j]) - double(row_max));
            denom += expv[size_t(j)];
        }
        for (int j = 0; j < limit; ++j)
            row[j] = float(expv[size_t(j)] / denom);
        for (int j = limit; j < len; ++j)
            row[j] = 0.f;
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

    // Gather each (band, kv-head) history exactly once — under
    // grouped-query attention several query heads share a kv head. On the
    // fused path a quantized history is a zero-copy chunk-code view into
    // the pool pages and the cache's fp32 staging; otherwise it is fully
    // materialized (a dequantize pass, frozen chunks memoized by the
    // cache). A task covers one (segment, kv-head) and walks its bands, so
    // no store's memo is materialized concurrently.
    //
    // Failure containment: a cache whose append faulted this step (see
    // KVCache::appendRows) may hold stores of uneven length, so its
    // history must not be read — every fan-out below skips failed
    // segments. Their attention rows stay zero (Matrix zero-initializes),
    // the batched projections still run over them (row-local, so garbage
    // rows influence nobody else's rows), and the scheduler retires the
    // owning request after the step. Co-scheduled segments compute
    // exactly what they would have computed in a fault-free run.
    const int kv_heads = config.kvHeads;
    struct HeadHistory
    {
        Matrix k, v;             ///< materialized (oracle path)
        KVCodeView kCodes, vCodes; ///< fused path
        bool fused = false;
    };
    std::vector<HeadHistory> hist(bands.size() * size_t(kv_heads));
    kc.parallelFor(0, int64_t(segments.size()) * int64_t(kv_heads), 1,
                   [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
            const size_t si = size_t(t) / size_t(kv_heads);
            const DecodeSegment &seg = segments[si];
            const int kvh = int(t % int64_t(kv_heads));
            if (seg.cache->failed())
                continue;
            const bool fused = options.fusedQuantKv &&
                seg.cache->config().mode == KVCacheMode::TenderQuantized;
            for (size_t b = first_band[si]; b < first_band[si + 1]; ++b) {
                const int last = bands[b].pos0 + bands[b].rows - 1;
                HeadHistory &hh = hist[b * size_t(kv_heads) + size_t(kvh)];
                hh.fused = fused;
                if (fused) {
                    hh.kCodes = seg.cache->keyView(layer, kvh, last);
                    hh.vCodes = seg.cache->valueView(layer, kvh, last);
                } else {
                    hh.k = seg.cache->keys(layer, kvh, last);
                    hh.v = seg.cache->values(layer, kvh, last);
                }
            }
        }
    });
    timer.accumulate(&DecodePhaseTimes::historyUs);

    // Attention stays per request (distinct KV histories). With MQ panels
    // on (the default), the fan-out is per (band, kv-head): the
    // nHeads/kvHeads query heads sharing a kv head run as one stacked
    // panel call, so each frozen chunk is read (and its per-chunk
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
                const Matrix out = hh.fused
                    ? attentionFusedQuantPanel(qp, group, hh.kCodes,
                                               hh.vCodes, band.pos0, kc)
                    : attentionPanelIncremental(qp, group, hh.k, hh.v,
                                                band.pos0, kc);
                for (int g = 0; g < group; ++g) {
                    const int h = kvh * group + g;
                    for (int r = 0; r < band.rows; ++r)
                        for (int c = 0; c < dh; ++c)
                            attn(band.row0 + r, h * dh + c) =
                                out(g * band.rows + r, c);
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
                const Matrix out = hh.fused
                    ? attentionHeadFusedQuant(qh, hh.kCodes, hh.vCodes,
                                              band.pos0, kc)
                    : attentionHeadIncremental(qh, hh.k, hh.v, band.pos0,
                                               &kc);
                for (int r = 0; r < out.rows(); ++r)
                    for (int c = 0; c < dh; ++c)
                        attn(band.row0 + r, h * dh + c) = out(r, c);
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
    TENDER_CHECK(hidden.cols() == embedding_.cols());
    return kc.gemmTransposedB(hidden.rowSlice(row, row + 1), readout_);
}

int
Vocab::argmaxToken(const Matrix &hidden, int row,
                   const KernelContext &kc) const
{
    const Matrix l = logits(hidden, row, kc);
    int best = 0;
    for (int t = 1; t < l.cols(); ++t)
        if (l(0, t) > l(0, best))
            best = t;
    return best;
}

} // namespace tender
