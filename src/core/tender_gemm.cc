#include "core/tender_gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

#include "quant/quantizer.h"

namespace tender {

namespace {

constexpr int64_t kInt16Max = std::numeric_limits<int16_t>::max();
constexpr int64_t kInt32Max = std::numeric_limits<int32_t>::max();

/** Output-column slice: the golden kernels transpose one slice of the
 *  N x K weight codes at a time, and the fold splits its columns into
 *  slices over the pool. */
constexpr int kColSlice = 128;
/** Square tile of the slice transpose. */
constexpr int kTile = 32;

void
mergeStats(TenderGemmStats &into, const TenderGemmStats &from)
{
    into.macs += from.macs;
    into.rescales += from.rescales;
    into.chunks += from.chunks;
    into.metaReuses += from.metaReuses;
    into.peakAbsAcc = std::max(into.peakAbsAcc, from.peakAbsAcc);
    into.overflow32 = into.overflow32 || from.overflow32;
}

/** Rows [i0, i1) of `m` transposed to m.cols() x (i1 - i0), in
 *  kTile x kTile tiles: a column slice of the N x K weight codes, or a
 *  chunk's codes, so the golden kernels stream each channel contiguously. */
template <class T>
void
transposeRows(const MatrixT<T> &m, int i0, int i1, MatrixT<T> &out)
{
    const int k = m.cols();
    const int rows = i1 - i0;
    if (out.rows() != k || out.cols() != rows)
        out = MatrixT<T>(k, rows);
    for (int c0 = 0; c0 < k; c0 += kTile) {
        const int c1 = std::min(c0 + kTile, k);
        for (int t0 = 0; t0 < rows; t0 += kTile) {
            const int t1 = std::min(t0 + kTile, rows);
            for (int i = t0; i < t1; ++i) {
                const T *src = m.rowPtr(i0 + i);
                for (int c = c0; c < c1; ++c)
                    out.rowPtr(c)[i] = src[c];
            }
        }
    }
}

/** Add group g's partial products over one transposed column slice `wt`
 *  into `dst` (chunk rows x wt.cols(), row stride `ld`); `ct` holds the
 *  chunk's codes transposed (K x rows). The Index Buffer ordering
 *  (meta.order) makes the channel walk sequential per group, as the
 *  hardware streams it. Codes are at most 16 bits wide, so each product
 *  fits int32; the sums run in int64. */
void
addGroupProducts(const IntMatrix &ct, const ChunkMeta &meta, int g,
                 const MatrixT<int16_t> &wt, int64_t *dst, int ld)
{
    const int jw = wt.cols();
    for (int idx = meta.groupStart[size_t(g)];
         idx < meta.groupStart[size_t(g) + 1]; ++idx) {
        const int c = meta.order[size_t(idx)];
        const int32_t *acol = ct.rowPtr(c);
        const int16_t *wrow = wt.rowPtr(c);
        for (int r = 0; r < ct.cols(); ++r) {
            const int32_t a = acol[r];
            if (a == 0)
                continue;
            int64_t *drow = dst + size_t(r) * size_t(ld);
            for (int j = 0; j < jw; ++j)
                drow[j] += int64_t(a * int32_t(wrow[j]));
        }
    }
}

/** The golden walk's check point over columns [j0, j1) of `acc`: peak
 *  tracking for a stats request and the 32-bit overflow check. */
void
checkAccumulator(const MatrixT<int64_t> &acc, int j0, int j1,
                 const TenderConfig &config, TenderGemmStats *stats,
                 const char *when)
{
    if (!stats && !config.checkOverflow)
        return;
    for (int r = 0; r < acc.rows(); ++r) {
        const int64_t *arow = acc.rowPtr(r);
        for (int j = j0; j < j1; ++j) {
            const int64_t a = std::abs(arow[j]);
            if (stats) {
                stats->peakAbsAcc = std::max(stats->peakAbsAcc, a);
                if (a > kInt32Max)
                    stats->overflow32 = true;
            }
            if (config.checkOverflow)
                TENDER_CHECK_MSG(a <= kInt32Max,
                                 "32-bit accumulator overflow " << when);
        }
    }
}

/** Dequantize a chunk's accumulator into rows [r0, r0 + acc.rows()) of
 *  y; the stacked pass adds the bias-correction rows afterwards. An int32
 *  and an int64 holding the same value convert to the same double, so the
 *  fold finishes bit-identically to the golden walk. */
template <class Acc>
void
dequantizeInto(const MatrixT<Acc> &acc, const ChunkMeta &meta,
               const std::vector<float> &col_scale, Matrix &y, int r0)
{
    const float s_last = meta.scale[size_t(meta.groups() - 1)];
    for (int r = 0; r < acc.rows(); ++r) {
        const Acc *arow = acc.rowPtr(r);
        float *yrow = y.rowPtr(r0 + r);
        for (int j = 0; j < acc.cols(); ++j)
            yrow[j] = float(double(arow[j]) * double(s_last) *
                            double(col_scale[size_t(j)]));
    }
}

} // namespace

MatrixT<int64_t>
chunkAccumulateImplicit(const QuantizedChunk &qc, const QuantizedWeight &qw,
                        const TenderConfig &config, TenderGemmStats *stats)
{
    TENDER_CHECK(qc.codes.cols() == qw.codes.cols() && qc.bits == qw.bits);
    const int rows = qc.codes.rows();
    const int n = qw.codes.rows();
    const ChunkMeta &meta = qc.meta;

    MatrixT<int64_t> acc(rows, n, 0);
    IntMatrix ct;
    transposeRows(qc.codes, 0, rows, ct);
    MatrixT<int16_t> wt;
    for (int j0 = 0; j0 < n; j0 += kColSlice) {
        const int j1 = std::min(j0 + kColSlice, n);
        transposeRows(qw.codes, j0, j1, wt);
        for (int g = 0; g < meta.groups(); ++g) {
            if (g > 0) {
                // Runtime requantization: A <- A * alpha between groups.
                // For alpha = 2 this is the MSA's 1-bit left shift.
                for (int r = 0; r < rows; ++r) {
                    int64_t *arow = acc.rowPtr(r);
                    for (int j = j0; j < j1; ++j)
                        arow[j] *= config.alpha;
                }
                checkAccumulator(acc, j0, j1, config, stats,
                                 "during rescale");
            }
            addGroupProducts(ct, meta, g, wt, acc.rowPtr(0) + j0, n);
        }
        checkAccumulator(acc, j0, j1, config, stats, "after final group");
    }
    if (stats) {
        for (int g = 0; g < meta.groups(); ++g)
            stats->macs += int64_t(meta.groupSize(g)) * int64_t(rows) *
                int64_t(n);
        stats->rescales += int64_t(meta.groups() - 1) * int64_t(rows) *
            int64_t(n);
    }
    return acc;
}

namespace {

// ---------------------------------------------------------------------------
// Folded product (pooled backends, no stats, chunks inside the bound).
//
// Adjacent group scales are exactly alpha apart, so the golden walk's
// shift-between-groups distributes over the sum: A_{G-1} =
// sum_c (q_c * alpha^(G-1-g(c))) * w_c. Multiplying each activation code
// by its group's power of alpha up front turns the group walk into one
// plain int16 dot-product GEMM with int32 accumulation. The per-chunk
// bound (foldedChunkFits, proof in the header) makes it exact and proves
// that none of the golden walk's overflow checks could have fired.
// ---------------------------------------------------------------------------

/** Register tile of the folded kernel: kDotRows chunk rows by kDotCols
 *  output columns. */
constexpr int kDotRows = 4;
constexpr int kDotCols = 4;

/** One MR x NR tile of C = A * B^T over the whole reduction: `a` and `b`
 *  point at MR and NR int16 rows contiguous over `k`. Deliberately no
 *  TENDER_PRAGMA_SIMD: GCC 12 with -march=native vectorizes the reduction
 *  over k into int16 dot-product instructions (vpdpwssd under
 *  AVX512-VNNI) on its own, while the pragma on the inner column loop, as
 *  the other kernels here place it, leaves the reduction scalar. A 4 x 4
 *  tile keeps 16 accumulators and 8 operand vectors in registers. */
template <int MR, int NR>
inline void
dotTile(const int16_t *a, const int16_t *b, int k, int32_t *c, int ldc)
{
    int32_t acc[MR][NR] = {};
    for (int p = 0; p < k; ++p)
        for (int i = 0; i < MR; ++i)
            for (int j = 0; j < NR; ++j)
                acc[i][j] += int32_t(a[i * k + p]) * int32_t(b[j * k + p]);
    for (int i = 0; i < MR; ++i)
        for (int j = 0; j < NR; ++j)
            c[i * ldc + j] = acc[i][j];
}

/** Rows [r, r + MR) of the folded product over output columns [j0, j1). */
template <int MR>
void
dotRowBand(const MatrixT<int16_t> &a, const MatrixT<int16_t> &b, int r,
           int j0, int j1, MatrixT<int32_t> &acc)
{
    const int k = a.cols();
    int j = j0;
    for (; j + kDotCols <= j1; j += kDotCols)
        dotTile<MR, kDotCols>(a.rowPtr(r), b.rowPtr(j), k,
                              acc.rowPtr(r) + j, acc.cols());
    for (; j < j1; ++j)
        dotTile<MR, 1>(a.rowPtr(r), b.rowPtr(j), k, acc.rowPtr(r) + j,
                       acc.cols());
}

/** acc(r, j) = sum_k a(r, k) * b(j, k) for output columns [j0, j1): `a`
 *  holds a chunk's folded codes (rows x K), `b` the weight's codes
 *  (N x K). */
void
foldedDotCols(const MatrixT<int16_t> &a, const MatrixT<int16_t> &b, int j0,
              int j1, MatrixT<int32_t> &acc)
{
    int r = 0;
    for (; r + kDotRows <= a.rows(); r += kDotRows)
        dotRowBand<kDotRows>(a, b, r, j0, j1, acc);
    for (; r < a.rows(); ++r)
        dotRowBand<1>(a, b, r, j0, j1, acc);
}

/** What folding a chunk's codes found. */
enum class Fold
{
    Zero, ///< every code is zero: the accumulator is zero
    Fits, ///< inside the per-chunk bound: the folded GEMM is exact
    Walk, ///< outside it: the chunk runs the golden walk
};

/** Fold the alpha-rescale into a quantized chunk: each code times
 *  alpha^(G-1-g(c)), narrowed to int16 into `out`, checking the per-chunk
 *  bound in the same pass. `out` is complete only when the result is not
 *  Walk. */
Fold
foldChunkCodes(const QuantizedChunk &qc, const TenderConfig &config,
               MatrixT<int16_t> &out)
{
    const ChunkMeta &meta = qc.meta;
    const int groups = meta.groups();
    // A multiplier past INT16_MAX makes any non-zero code of its group
    // too wide already, so the powers stop growing there.
    std::vector<int64_t> group_mult(size_t(groups), 1);
    for (int g = groups - 2; g >= 0; --g)
        group_mult[size_t(g)] = std::min(
            group_mult[size_t(g) + 1] * config.alpha, kInt16Max + 1);
    const int d = qc.codes.cols();
    std::vector<int64_t> mult(static_cast<size_t>(d));
    for (int c = 0; c < d; ++c)
        mult[size_t(c)] = group_mult[size_t(meta.group[size_t(c)])];
    const int64_t max_code = maxCode(config.bits);
    out = MatrixT<int16_t>(qc.codes.rows(), d);
    bool any = false;
    for (int r = 0; r < qc.codes.rows(); ++r) {
        const int32_t *src = qc.codes.rowPtr(r);
        int16_t *dst = out.rowPtr(r);
        int64_t widest = 0, sum = 0;
        for (int c = 0; c < d; ++c) {
            const int64_t v = int64_t(src[c]) * mult[size_t(c)];
            dst[c] = int16_t(v);
            widest = std::max(widest, std::abs(v));
            sum += std::abs(v);
        }
        if (widest > kInt16Max || max_code * sum > kInt32Max)
            return Fold::Walk;
        any = any || sum != 0;
    }
    return any ? Fold::Fits : Fold::Zero;
}

// ---------------------------------------------------------------------------
// Bias correction: one stacked pass for every chunk of a product.
// ---------------------------------------------------------------------------

/** Most chunks one task of the stacked pass corrects, so that its tile
 *  (chunks x one column slice of fp32 sums) stays in L1. */
constexpr int kMaxCorrectionChunks = 16;

/** One tile of the stacked pass: rows `chunks` x `cols` of `tile` (row
 *  stride `cols`) get, for chunk i with per-channel biases bias[i * ldb +
 *  c] and columns w[c * ldw + j],
 *
 *      tile(i, j) = sum_c float(b_ic * double(w(c, j))),
 *
 *  summed in fp32 over the k channels in ascending order, zero biases
 *  skipped, with b a widened float (the expression shape the file comment
 *  describes). Each weight row is read once for all of the tile's chunks.
 *  A full column slice passes its width as kCols, so its row loop
 *  compiles to a fixed run of vector FMAs; kCols = 0 reads `cols`. */
template <int kCols>
void
correctionTile(const float *bias, int ldb, int chunks, const float *w,
               int ldw, int k, int cols, float *tile)
{
    const int width = kCols > 0 ? kCols : cols;
    std::fill(tile, tile + size_t(chunks) * size_t(width), 0.f);
    for (int c = 0; c < k; ++c) {
        const float *wrow = w + size_t(c) * size_t(ldw);
        for (int i = 0; i < chunks; ++i) {
            const double b = bias[size_t(i) * size_t(ldb) + size_t(c)];
            if (b == 0.0)
                continue;
            float *out = tile + size_t(i) * size_t(width);
            for (int j = 0; j < width; ++j)
                out[j] += float(b * double(wrow[j]));
        }
    }
}

/** Add every chunk's bias-correction row to its output rows: chunk i
 *  (rows ranges[i] of y, per-channel biases in row i of `biases`) gets
 *  its correctionTile row. Tasks are (chunk block x column slice) tiles
 *  over the pool. Any partition gives the same bits, because each output
 *  element's channel sum stays in one task, in ascending channel order. */
void
addBiasCorrections(const Matrix &biases,
                   const std::vector<std::pair<int, int>> &ranges,
                   const Matrix &w, const KernelContext &kc, Matrix &y)
{
    const int chunks = biases.rows();
    const int k = w.rows();
    const int n = w.cols();
    if (chunks == 0 || n == 0)
        return;
    const int slices = (n + kColSlice - 1) / kColSlice;
    const int per_block = std::min(chunks, kMaxCorrectionChunks);
    const int blocks = (chunks + per_block - 1) / per_block;
    kc.parallelFor(0, int64_t(blocks) * slices, 1,
                   [&](int64_t t0, int64_t t1) {
        std::vector<float> tile(size_t(per_block) * size_t(kColSlice));
        for (int64_t t = t0; t < t1; ++t) {
            const int i0 = int(t / slices) * per_block;
            const int i1 = std::min(i0 + per_block, chunks);
            const int j0 = int(t % slices) * kColSlice;
            const int jw = std::min(j0 + kColSlice, n) - j0;
            (jw == kColSlice ? correctionTile<kColSlice>
                             : correctionTile<0>)(biases.rowPtr(i0), k,
                                                  i1 - i0, w.rowPtr(0) + j0,
                                                  n, k, jw, tile.data());
            for (int i = i0; i < i1; ++i) {
                const float *corr = tile.data() + size_t(i - i0) * size_t(jw);
                for (int r = ranges[size_t(i)].first;
                     r < ranges[size_t(i)].second; ++r) {
                    float *yrow = y.rowPtr(r) + j0;
                    for (int j = 0; j < jw; ++j)
                        yrow[j] += corr[j];
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Shared chunk pipeline.
// ---------------------------------------------------------------------------

/** Run body(ci) for every chunk index of `ranges`. Chunks are the primary
 *  parallel axis; a body with its own inner (column-sliced) parallel axis
 *  runs chunk by chunk when chunks alone cannot fill the pool, so the
 *  inner fan-out gets the workers (nested calls from chunk tasks run
 *  inline). */
template <class Body>
void
forEachChunk(const std::vector<std::pair<int, int>> &ranges,
             bool inner_axis, const KernelContext &kc, const Body &body)
{
    if (!inner_axis || int64_t(ranges.size()) >= int64_t(kc.workers())) {
        kc.parallelFor(0, int64_t(ranges.size()), 1,
                       [&](int64_t c0, int64_t c1) {
            for (int64_t ci = c0; ci < c1; ++ci)
                body(size_t(ci));
        });
    } else {
        for (size_t ci = 0; ci < ranges.size(); ++ci)
            body(ci);
    }
}

/** Chunk row ranges over a stack of segments of x's `rows` rows: chunk
 *  boundaries restart at every segment boundary, so each segment's chunks
 *  are exactly those of a product of its rows alone. */
std::vector<std::pair<int, int>>
segmentChunkRanges(const std::vector<int> &segment_rows, int rows,
                   int row_chunk)
{
    TENDER_REQUIRE(!segment_rows.empty(), "a segmented product needs a "
                   "segment");
    std::vector<std::pair<int, int>> ranges;
    int row0 = 0;
    for (int seg : segment_rows) {
        TENDER_REQUIRE(seg > 0, "a segment needs rows, got " << seg);
        for (const auto &[r0, r1] : chunkRanges(seg, row_chunk))
            ranges.emplace_back(row0 + r0, row0 + r1);
        row0 += seg;
    }
    TENDER_REQUIRE(row0 == rows, "segments cover " << row0 << " of "
                                 << rows << " rows");
    return ranges;
}

/** The metadata a one-row chunk shares with every other one-row chunk
 *  apart from its bias, or nothing when such chunks' codes are not all
 *  zero. Under bias subtraction a row v is its own bias (envelopeBias(v,
 *  v) == v for |v| <= FLT_MAX / 2), so each centered value is zero, TMax
 *  is zero and every channel lands in group G-1, whatever the row; while
 *  that group's scale is positive, every code is zero. Without bias
 *  subtraction the row itself is quantized. */
std::optional<ChunkMeta>
oneRowMeta(int channels, const TenderConfig &config)
{
    if (!config.biasSubtract)
        return std::nullopt;
    ChunkMeta meta = decomposeChunk(Matrix(1, channels, 0.f), config);
    if (!(meta.scale.back() > 0.f))
        return std::nullopt;
    return meta;
}

/** True when envelopeBias(v, v) == v for every value of the row: |v| <=
 *  FLT_MAX / 2, so v + v cannot overflow. NaN and +-inf fail too, and
 *  take the general path, which keeps their result. */
bool
rowIsItsBias(const float *row, int channels)
{
    constexpr float kHalfMax = std::numeric_limits<float>::max() / 2;
    bool ok = true;
    for (int c = 0; c < channels; ++c)
        ok = ok && std::abs(row[c]) <= kHalfMax;
    return ok;
}

enum class RequantMode { Implicit, Explicit };

/** Eq. 1 body for one chunk, accumulating straight into the output view:
 *  one integer GEMM per group, dequantized with the group scale and added
 *  in FP (groups ascending; the stacked pass adds the bias-correction row
 *  last), one column slice at a time. */
void
processChunkExplicit(const QuantizedChunk &qc, const QuantizedWeight &qw,
                     Matrix &y, int r0)
{
    const ChunkMeta &meta = qc.meta;
    const int rows = qc.codes.rows();
    const int n = qw.codes.rows();
    IntMatrix ct;
    transposeRows(qc.codes, 0, rows, ct);
    MatrixT<int16_t> wt;
    std::vector<int64_t> partial;
    for (int j0 = 0; j0 < n; j0 += kColSlice) {
        const int j1 = std::min(j0 + kColSlice, n);
        const int jw = j1 - j0;
        transposeRows(qw.codes, j0, j1, wt);
        for (int g = 0; g < meta.groups(); ++g) {
            partial.assign(size_t(rows) * size_t(jw), 0);
            addGroupProducts(ct, meta, g, wt, partial.data(), jw);
            const double sg = meta.scale[size_t(g)];
            for (int r = 0; r < rows; ++r) {
                const int64_t *prow = partial.data() + size_t(r) * size_t(jw);
                float *yrow = y.rowPtr(r0 + r) + j0;
                for (int j = 0; j < jw; ++j)
                    yrow[j] += float(double(prow[j]) * sg *
                                     double(qw.colScale[size_t(j0 + j)]));
            }
        }
    }
}

/** The chunk pipeline over the chunks `ranges` of x's rows and a weight
 *  quantized beforehand: `qw` is quantizeWeight(w, config.bits), and `w`
 *  is read only by the bias correction. */
Matrix
runChunkPipeline(const Matrix &x,
                 const std::vector<std::pair<int, int>> &ranges,
                 const QuantizedWeight &qw, const Matrix &w,
                 const std::vector<ChunkMeta> *metas,
                 const TenderConfig &config, RequantMode mode,
                 TenderGemmStats *stats, const KernelContext &kc)
{
    TENDER_CHECK(x.cols() == w.rows());
    TENDER_CHECK(qw.codes.rows() == w.cols() && qw.codes.cols() == w.rows());
    TENDER_CHECK(qw.bits == config.bits);
    // The pooled backends fold every chunk inside the bound; stats count
    // the golden walk's rescales and peaks, so a stats request walks.
    const bool fold = mode == RequantMode::Implicit && !stats &&
        kc.backend() != Backend::Serial;
    const int k = w.rows();
    const int n = w.cols();

    Matrix y(x.rows(), n, 0.f);
    Matrix biases(int(ranges.size()), k); // per chunk, for the correction
    std::vector<TenderGemmStats> local(ranges.size());
    // On the fold's domain with dynamic metadata, a one-row chunk whose
    // row is its own bias skips decompose, quantize and fold: its codes
    // are zero (oneRowMeta), so its product is its bias-correction row.
    const std::optional<ChunkMeta> row_meta =
        fold && !metas ? oneRowMeta(k, config) : std::nullopt;

    auto processOne = [&](size_t ci) {
        const auto [r0, r1] = ranges[ci];
        if (row_meta && r1 - r0 == 1 && rowIsItsBias(x.rowPtr(r0), k)) {
            std::copy(x.rowPtr(r0), x.rowPtr(r0) + k, biases.rowPtr(int(ci)));
            dequantizeInto(MatrixT<int32_t>(1, n, 0), *row_meta, qw.colScale,
                           y, r0);
            return;
        }
        TenderGemmStats *ls = stats ? &local[ci] : nullptr;
        const Matrix chunk = x.rowSlice(r0, r1);
        ChunkMeta meta;
        if (metas) {
            size_t mi = ci;
            if (mi >= metas->size()) {
                // Static calibration saw fewer chunks than the eval
                // tensor: reuse the final calibrated entry, accounted in
                // TenderGemmStats::metaReuses rather than clamped silently.
                mi = metas->size() - 1;
                ++local[ci].metaReuses;
            }
            meta = (*metas)[mi];
        } else {
            meta = decomposeChunk(chunk, config);
        }
        TENDER_CHECK(meta.bias.size() == size_t(k));
        std::copy(meta.bias.begin(), meta.bias.end(),
                  biases.rowPtr(int(ci)));
        const QuantizedChunk qc = quantizeChunk(chunk, meta, config.bits);
        ++local[ci].chunks;
        if (mode == RequantMode::Explicit) {
            processChunkExplicit(qc, qw, y, r0);
            return;
        }
        MatrixT<int16_t> folded;
        const Fold kind = fold ? foldChunkCodes(qc, config, folded)
                               : Fold::Walk;
        if (kind == Fold::Walk) {
            dequantizeInto(chunkAccumulateImplicit(qc, qw, config, ls), meta,
                           qw.colScale, y, r0);
            return;
        }
        MatrixT<int32_t> acc(r1 - r0, n, 0);
        if (kind == Fold::Fits) {
            const int64_t slices = (n + kColSlice - 1) / kColSlice;
            kc.parallelFor(0, slices, 1, [&](int64_t b0, int64_t b1) {
                for (int64_t b = b0; b < b1; ++b)
                    foldedDotCols(folded, qw.codes, int(b) * kColSlice,
                                  std::min(int(b + 1) * kColSlice, n), acc);
            });
        }
        dequantizeInto(acc, meta, qw.colScale, y, r0);
    };

    // The fold has an inner (column-sliced) parallel axis; the golden
    // bodies always parallelize over chunks, however few.
    forEachChunk(ranges, fold, kc, processOne);
    addBiasCorrections(biases, ranges, w, kc, y);

    int64_t reuses = 0;
    for (const TenderGemmStats &s : local)
        reuses += s.metaReuses;
    if (reuses > 0) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            std::fprintf(stderr,
                         "tender: eval tensor has more chunks than the "
                         "calibration run; reusing the final calibrated "
                         "meta (counted in TenderGemmStats::metaReuses)\n");
    }
    if (stats) {
        stats->metaReuses += reuses;
        for (const TenderGemmStats &s : local) {
            TenderGemmStats chunk_stats = s;
            chunk_stats.metaReuses = 0; // already merged above
            mergeStats(*stats, chunk_stats);
        }
    }
    return y;
}

} // namespace

bool
foldedChunkFits(const QuantizedChunk &qc, const TenderConfig &config)
{
    MatrixT<int16_t> folded;
    return foldChunkCodes(qc, config, folded) != Fold::Walk;
}

Matrix
tenderMatmul(const Matrix &x, const Matrix &w, const TenderConfig &config,
             TenderGemmStats *stats, const KernelContext *kernels)
{
    return tenderMatmul(x, quantizeWeight(w, config.bits), w, config, stats,
                        kernels);
}

Matrix
tenderMatmul(const Matrix &x, const QuantizedWeight &qw, const Matrix &w,
             const TenderConfig &config, TenderGemmStats *stats,
             const KernelContext *kernels)
{
    const KernelContext &kc = kernels ? *kernels : defaultKernels();
    return runChunkPipeline(x, chunkRanges(x.rows(), config.rowChunk), qw,
                            w, nullptr, config, RequantMode::Implicit, stats,
                            kc);
}

Matrix
tenderMatmulSegments(const Matrix &x, const std::vector<int> &segmentRows,
                     const QuantizedWeight &qw, const Matrix &w,
                     const TenderConfig &config, TenderGemmStats *stats,
                     const KernelContext *kernels)
{
    const KernelContext &kc = kernels ? *kernels : defaultKernels();
    return runChunkPipeline(
        x, segmentChunkRanges(segmentRows, x.rows(), config.rowChunk), qw, w,
        nullptr, config, RequantMode::Implicit, stats, kc);
}

Matrix
tenderMatmulCalibrated(const Matrix &x, const Matrix &w,
                       const std::vector<ChunkMeta> &metas,
                       const TenderConfig &config, TenderGemmStats *stats,
                       const KernelContext *kernels)
{
    TENDER_REQUIRE(!metas.empty(), "calibrated path needs metadata");
    const KernelContext &kc = kernels ? *kernels : defaultKernels();
    return runChunkPipeline(x, chunkRanges(x.rows(), config.rowChunk),
                            quantizeWeight(w, config.bits), w, &metas,
                            config, RequantMode::Implicit, stats, kc);
}

Matrix
tenderMatmulExplicit(const Matrix &x, const Matrix &w,
                     const TenderConfig &config,
                     const KernelContext *kernels)
{
    const KernelContext &kc = kernels ? *kernels : defaultKernels();
    return runChunkPipeline(x, chunkRanges(x.rows(), config.rowChunk),
                            quantizeWeight(w, config.bits), w, nullptr,
                            config, RequantMode::Explicit, nullptr, kc);
}

} // namespace tender
