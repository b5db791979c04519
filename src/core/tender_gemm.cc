#include "core/tender_gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "quant/quantizer.h"
#include "util/cpu_features.h"

namespace tender {

namespace {

void
notePeak(TenderGemmStats *stats, const MatrixT<int64_t> &acc)
{
    if (!stats)
        return;
    for (int64_t v : acc.data()) {
        stats->peakAbsAcc = std::max(stats->peakAbsAcc, std::abs(v));
        if (std::abs(v) > int64_t(std::numeric_limits<int32_t>::max()))
            stats->overflow32 = true;
    }
}

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

/** finishChunkInto's arithmetic for an accumulator of either width: an
 *  int32 and an int64 holding the same value convert to the same double,
 *  so the folded product finishes bit-identically to the golden one. */
template <class Acc>
void
finishRowsInto(const MatrixT<Acc> &acc, float s_last,
               const std::vector<float> &col_scale,
               const Matrix &bias_correction, Matrix &y, int r0)
{
    const float *corr = bias_correction.rowPtr(0);
    for (int r = 0; r < acc.rows(); ++r) {
        const Acc *arow = acc.rowPtr(r);
        float *yrow = y.rowPtr(r0 + r);
        for (int j = 0; j < acc.cols(); ++j)
            yrow[j] = float(double(arow[j]) * double(s_last) *
                            double(col_scale[size_t(j)])) + corr[j];
    }
}

} // namespace

MatrixT<int64_t>
chunkAccumulateImplicit(const QuantizedChunk &qc, const QuantizedWeight &qw,
                        const TenderConfig &config, TenderGemmStats *stats)
{
    TENDER_CHECK(qc.codes.cols() == qw.codes.rows());
    const int rows = qc.codes.rows();
    const int n = qw.codes.cols();
    const ChunkMeta &meta = qc.meta;

    MatrixT<int64_t> acc(rows, n, 0);
    for (int g = 0; g < meta.groups(); ++g) {
        if (g > 0) {
            // Runtime requantization: A <- A * alpha between groups. For
            // alpha = 2 this is the MSA's 1-bit left shift.
            for (auto &v : acc.data())
                v *= config.alpha;
            if (stats)
                stats->rescales += int64_t(rows) * int64_t(n);
            notePeak(stats, acc);
            if (config.checkOverflow) {
                for (int64_t v : acc.data())
                    TENDER_CHECK_MSG(
                        std::abs(v) <=
                            int64_t(std::numeric_limits<int32_t>::max()),
                        "32-bit accumulator overflow during rescale");
            }
        }
        // Accumulate the partial products of this group's channels. The
        // Index Buffer ordering (meta.order) makes the channel walk
        // sequential per group, as the hardware streams it.
        for (int idx = meta.groupStart[size_t(g)];
             idx < meta.groupStart[size_t(g) + 1]; ++idx) {
            const int c = meta.order[size_t(idx)];
            for (int r = 0; r < rows; ++r) {
                const int64_t a = qc.codes(r, c);
                if (a == 0)
                    continue;
                const int16_t *wrow = qw.codes.rowPtr(c);
                int64_t *arow = acc.rowPtr(r);
                for (int j = 0; j < n; ++j)
                    arow[j] += a * int64_t(wrow[j]);
            }
        }
        if (stats)
            stats->macs += int64_t(meta.groupSize(g)) * int64_t(rows) *
                int64_t(n);
    }
    notePeak(stats, acc);
    if (config.checkOverflow) {
        for (int64_t v : acc.data())
            TENDER_CHECK_MSG(
                std::abs(v) <= int64_t(std::numeric_limits<int32_t>::max()),
                "32-bit accumulator overflow after final group");
    }
    return acc;
}

Matrix
biasCorrectionRow(const ChunkMeta &meta, const Matrix &w)
{
    TENDER_CHECK(meta.channels() == w.rows());
    Matrix row(1, w.cols(), 0.f);
    float *out = row.rowPtr(0);
    for (int c = 0; c < w.rows(); ++c) {
        const double b = meta.bias[size_t(c)];
        if (b == 0.0)
            continue;
        const float *wrow = w.rowPtr(c);
        for (int j = 0; j < w.cols(); ++j)
            out[j] += float(b * double(wrow[j]));
    }
    return row;
}

void
finishChunkInto(const MatrixT<int64_t> &acc, const QuantizedChunk &qc,
                const QuantizedWeight &qw, const Matrix &bias_correction,
                Matrix &y, int r0)
{
    const ChunkMeta &meta = qc.meta;
    finishRowsInto(acc, meta.scale[size_t(meta.groups() - 1)], qw.colScale,
                   bias_correction, y, r0);
}

Matrix
finishChunk(const MatrixT<int64_t> &acc, const QuantizedChunk &qc,
            const QuantizedWeight &qw, const Matrix &bias_correction)
{
    Matrix out(acc.rows(), acc.cols());
    finishChunkInto(acc, qc, qw, bias_correction, out, 0);
    return out;
}

namespace {

// ---------------------------------------------------------------------------
// Fast blocked accumulate (threaded backend).
//
// The golden kernel above walks channel-by-channel across the full
// accumulator, so for transformer-scale N the accumulator row working set
// lives in L3. The blocked variant processes an output-column slice at a
// time with group partial sums in int32 (codes are at most 8 bits wide, so
// a whole group's partial sum is bounded well inside int32 — checked per
// chunk before selecting this path). It reads the weight's int16 codes in
// place and a transposed int16 copy of the chunk's activation codes.
// Integer arithmetic is exact, so the result is bit-identical to the
// golden kernel; peak/overflow tracking scans the same accumulator values
// at the same group boundaries.
// ---------------------------------------------------------------------------

/** Output-column slice width: int32 partial row of 512 B. */
constexpr int kFastColBlock = 128;
/** Chunk-row band: partial band of kFastColBlock*kFastRowBand*4 B = 16 KB
 *  stays L1-resident while a group's channels stream through it. */
constexpr int kFastRowBand = 32;

/** Narrowed (int16), transposed copy of a chunk's widened activation
 *  codes (channels x rows); bits <= 8 guarantees the fit. */
MatrixT<int16_t>
packCodesTransposed(const IntMatrix &m)
{
    MatrixT<int16_t> t(m.cols(), m.rows());
    for (int r = 0; r < m.rows(); ++r) {
        const int32_t *row = m.rowPtr(r);
        for (int c = 0; c < m.cols(); ++c)
            t.rowPtr(c)[r] = int16_t(row[c]);
    }
    return t;
}

/** True when ONE group's int32 partial sum provably cannot overflow at
 *  worst-case codes (the partial is folded into the int64 running
 *  accumulator at each group boundary, so only the per-group bound is
 *  needed — it holds for any transformer-scale reduction at b <= 8). */
bool
fastEligible(const ChunkMeta &meta, int bits)
{
    if (bits > 8)
        return false;
    int max_group = 0;
    for (int g = 0; g < meta.groups(); ++g)
        max_group = std::max(max_group, meta.groupSize(g));
    const int64_t mc = maxCode(bits);
    return mc * mc * int64_t(max_group) <=
        int64_t(std::numeric_limits<int32_t>::max());
}

/** Blocked accumulate over output columns [j0, j1): identical arithmetic
 *  to chunkAccumulateImplicit restricted to that column slice. Group
 *  partials run in an L1-resident int32 band (exact under the
 *  fastEligible bound); the running accumulator, like the golden
 *  kernel's, is int64 so saturating workloads overflow-account rather
 *  than wrap. */
void
fastAccumulateCols(const MatrixT<int16_t> &xt, const MatrixT<int16_t> &w16,
                   const ChunkMeta &meta, const TenderConfig &config,
                   int j0, int j1, MatrixT<int64_t> &acc, bool track,
                   int64_t *peak_abs, bool *overflow)
{
    const int rows = xt.cols();
    const int jw = j1 - j0;
    const int64_t int32_max = int64_t(std::numeric_limits<int32_t>::max());
    std::vector<int32_t> part(size_t(kFastRowBand) * size_t(jw));
    std::vector<int64_t> accb(size_t(kFastRowBand) * size_t(jw));

    for (int rb = 0; rb < rows; rb += kFastRowBand) {
        const int rn = std::min(kFastRowBand, rows - rb);
        const size_t cnt = size_t(rn) * size_t(jw);
        std::fill(accb.begin(), accb.begin() + cnt, int64_t{0});
        for (int g = 0; g < meta.groups(); ++g) {
            if (g > 0) {
                for (size_t i = 0; i < cnt; ++i)
                    accb[i] *= config.alpha;
                if (track || config.checkOverflow) {
                    for (size_t i = 0; i < cnt; ++i) {
                        const int64_t a = std::abs(accb[i]);
                        if (track) {
                            *peak_abs = std::max(*peak_abs, a);
                            if (a > int32_max)
                                *overflow = true;
                        }
                        if (config.checkOverflow)
                            TENDER_CHECK_MSG(
                                a <= int32_max,
                                "32-bit accumulator overflow during rescale");
                    }
                }
            }
            std::fill(part.begin(), part.begin() + cnt, 0);
            for (int idx = meta.groupStart[size_t(g)];
                 idx < meta.groupStart[size_t(g) + 1]; ++idx) {
                const int c = meta.order[size_t(idx)];
                const int16_t *__restrict wrow = w16.rowPtr(c) + j0;
                const int16_t *__restrict xcol = xt.rowPtr(c) + rb;
                int r = 0;
                // Four rows share each weight-slice load (adding a zero
                // product for an empty lane is exact, so the skip
                // condition only needs all four codes zero).
                for (; r + 3 < rn; r += 4) {
                    const int32_t a0 = xcol[r];
                    const int32_t a1 = xcol[r + 1];
                    const int32_t a2 = xcol[r + 2];
                    const int32_t a3 = xcol[r + 3];
                    if ((a0 | a1 | a2 | a3) == 0)
                        continue;
                    int32_t *__restrict p0 =
                        part.data() + size_t(r) * size_t(jw);
                    int32_t *__restrict p1 = p0 + jw;
                    int32_t *__restrict p2 = p1 + jw;
                    int32_t *__restrict p3 = p2 + jw;
                    TENDER_PRAGMA_SIMD
                    for (int j = 0; j < jw; ++j) {
                        const int32_t wv = wrow[j];
                        p0[j] += a0 * wv;
                        p1[j] += a1 * wv;
                        p2[j] += a2 * wv;
                        p3[j] += a3 * wv;
                    }
                }
                for (; r < rn; ++r) {
                    const int32_t a = xcol[r];
                    if (a == 0)
                        continue;
                    int32_t *__restrict prow =
                        part.data() + size_t(r) * size_t(jw);
                    TENDER_PRAGMA_SIMD
                    for (int j = 0; j < jw; ++j)
                        prow[j] += a * int32_t(wrow[j]);
                }
            }
            for (size_t i = 0; i < cnt; ++i)
                accb[i] += int64_t(part[i]);
        }
        if (track || config.checkOverflow) {
            for (size_t i = 0; i < cnt; ++i) {
                const int64_t a = std::abs(accb[i]);
                if (track) {
                    *peak_abs = std::max(*peak_abs, a);
                    if (a > int32_max)
                        *overflow = true;
                }
                if (config.checkOverflow)
                    TENDER_CHECK_MSG(
                        a <= int32_max,
                        "32-bit accumulator overflow after final group");
            }
        }
        for (int r = 0; r < rn; ++r)
            std::copy(accb.begin() + size_t(r) * size_t(jw),
                      accb.begin() + size_t(r + 1) * size_t(jw),
                      acc.rowPtr(rb + r) + j0);
    }
}

MatrixT<int64_t>
chunkAccumulateFast(const IntMatrix &codes, const MatrixT<int16_t> &w16,
                    const ChunkMeta &meta, const TenderConfig &config,
                    TenderGemmStats *stats, const KernelContext &kc)
{
    const int rows = codes.rows();
    const int n = w16.cols();
    const MatrixT<int16_t> xt = packCodesTransposed(codes);
    MatrixT<int64_t> acc(rows, n, 0);
    const int64_t blocks = (n + kFastColBlock - 1) / kFastColBlock;
    const bool track = stats != nullptr;
    std::vector<int64_t> peaks(size_t(blocks), 0);
    std::vector<uint8_t> ovf(size_t(blocks), 0);
    // Column slices are independent for the whole group walk, so this is
    // the second parallel axis (used when chunks alone can't fill the
    // pool; nested calls from chunk tasks run inline).
    kc.parallelFor(0, blocks, 1, [&](int64_t b0, int64_t b1) {
        for (int64_t b = b0; b < b1; ++b) {
            bool o = false;
            fastAccumulateCols(xt, w16, meta, config, int(b) * kFastColBlock,
                               std::min(int(b) * kFastColBlock +
                                        kFastColBlock, n),
                               acc, track, &peaks[size_t(b)], &o);
            ovf[size_t(b)] = o ? 1 : 0;
        }
    });
    if (stats) {
        for (int g = 0; g < meta.groups(); ++g)
            stats->macs += int64_t(meta.groupSize(g)) * int64_t(rows) *
                int64_t(n);
        stats->rescales += int64_t(meta.groups() - 1) * int64_t(rows) *
            int64_t(n);
        for (int64_t b = 0; b < blocks; ++b) {
            stats->peakAbsAcc = std::max(stats->peakAbsAcc,
                                         peaks[size_t(b)]);
            if (ovf[size_t(b)])
                stats->overflow32 = true;
        }
    }
    return acc;
}

// ---------------------------------------------------------------------------
// Folded product (prepared weights inside the fold bound).
//
// Adjacent group scales are exactly alpha apart, so the golden kernel's
// shift-between-groups distributes over the sum: A_{G-1} =
// sum_c (q_c * alpha^(G-1-g(c))) * w_c. Multiplying each activation code
// by its group's power of alpha up front turns the group walk into one
// plain int16 dot-product GEMM with int32 accumulation. foldedProductFits
// bounds every folded code by INT16_MAX and every partial sum, in any
// order, by INT32_MAX, so the result equals the golden accumulator exactly
// and none of its group-boundary overflow checks could have fired.
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
 *  holds a chunk's folded codes (rows x K), `b` the weight's columns
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

/** Fold the alpha-rescale into a quantized chunk: each code times
 *  alpha^(G-1-g(c)), narrowed to int16 (exact under foldedProductFits).
 *  Returns false when every code is zero. */
bool
foldChunkCodes(const QuantizedChunk &qc, int alpha, MatrixT<int16_t> &out)
{
    const ChunkMeta &meta = qc.meta;
    const int groups = meta.groups();
    std::vector<int32_t> group_mult(size_t(groups), 1);
    for (int g = groups - 2; g >= 0; --g)
        group_mult[size_t(g)] = group_mult[size_t(g) + 1] * alpha;
    const int d = qc.codes.cols();
    std::vector<int32_t> mult(static_cast<size_t>(d));
    for (int c = 0; c < d; ++c)
        mult[size_t(c)] = group_mult[size_t(meta.group[size_t(c)])];
    out = MatrixT<int16_t>(qc.codes.rows(), d);
    int32_t any = 0;
    for (int r = 0; r < qc.codes.rows(); ++r) {
        const int32_t *src = qc.codes.rowPtr(r);
        int16_t *dst = out.rowPtr(r);
        for (int c = 0; c < d; ++c) {
            const int32_t v = src[c] * mult[size_t(c)];
            dst[c] = int16_t(v);
            any |= v;
        }
    }
    return any != 0;
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

enum class RequantMode { Implicit, Explicit };

void
addRowsInto(const Matrix &row, Matrix &y, int r0, int rows)
{
    for (int r = 0; r < rows; ++r)
        for (int j = 0; j < y.cols(); ++j)
            y(r0 + r, j) += row(0, j);
}

/** Eq. 1 body for one chunk, accumulating straight into the output view:
 *  one integer GEMM per group, dequantized with the group scale and added
 *  in FP (groups ascending, bias-correction row last). The per-element FP
 *  sequence — one add per group, then the bias row — is exactly what the
 *  blocked variant below replays, so the two are bit-identical. */
void
processChunkExplicit(const ChunkMeta &meta, const QuantizedChunk &qc,
                     const QuantizedWeight &qw, const Matrix &w,
                     Matrix &y, int r0)
{
    const int rows = qc.codes.rows();
    const int n = qw.codes.cols();
    MatrixT<int64_t> partial(rows, n, 0);
    for (int g = 0; g < meta.groups(); ++g) {
        std::fill(partial.data().begin(), partial.data().end(), int64_t{0});
        for (int idx = meta.groupStart[size_t(g)];
             idx < meta.groupStart[size_t(g) + 1]; ++idx) {
            const int c = meta.order[size_t(idx)];
            for (int r = 0; r < rows; ++r) {
                const int64_t a = qc.codes(r, c);
                if (a == 0)
                    continue;
                const int16_t *wrow = qw.codes.rowPtr(c);
                int64_t *prow = partial.rowPtr(r);
                for (int j = 0; j < n; ++j)
                    prow[j] += a * int64_t(wrow[j]);
            }
        }
        const double sg = meta.scale[size_t(g)];
        for (int r = 0; r < rows; ++r) {
            const int64_t *prow = partial.rowPtr(r);
            float *yrow = y.rowPtr(r0 + r);
            for (int j = 0; j < n; ++j)
                yrow[j] += float(double(prow[j]) * sg *
                                 double(qw.colScale[size_t(j)]));
        }
    }
    addRowsInto(biasCorrectionRow(meta, w), y, r0, rows);
}

/** Blocked Eq. 1 accumulate over output columns [j0, j1): the group
 *  partial runs in the same L1-resident int32 band as the implicit fast
 *  path (exact under the fastEligible bound), and each group's partial is
 *  dequantized into y with one FP add per element — the identical FP
 *  sequence as processChunkExplicit, hence bit parity (asserted in
 *  tests/test_tender_gemm.cc). The caller adds the bias-correction row. */
void
fastExplicitCols(const MatrixT<int16_t> &xt, const MatrixT<int16_t> &w16,
                 const ChunkMeta &meta, const std::vector<float> &col_scale,
                 int j0, int j1, Matrix &y, int r0)
{
    const int rows = xt.cols();
    const int jw = j1 - j0;
    std::vector<int32_t> part(size_t(kFastRowBand) * size_t(jw));
    for (int rb = 0; rb < rows; rb += kFastRowBand) {
        const int rn = std::min(kFastRowBand, rows - rb);
        const size_t cnt = size_t(rn) * size_t(jw);
        for (int g = 0; g < meta.groups(); ++g) {
            std::fill(part.begin(), part.begin() + cnt, 0);
            for (int idx = meta.groupStart[size_t(g)];
                 idx < meta.groupStart[size_t(g) + 1]; ++idx) {
                const int c = meta.order[size_t(idx)];
                const int16_t *__restrict wrow = w16.rowPtr(c) + j0;
                const int16_t *__restrict xcol = xt.rowPtr(c) + rb;
                for (int r = 0; r < rn; ++r) {
                    const int32_t a = xcol[r];
                    if (a == 0)
                        continue;
                    int32_t *__restrict prow =
                        part.data() + size_t(r) * size_t(jw);
                    TENDER_PRAGMA_SIMD
                    for (int j = 0; j < jw; ++j)
                        prow[j] += a * int32_t(wrow[j]);
                }
            }
            const double sg = meta.scale[size_t(g)];
            for (int r = 0; r < rn; ++r) {
                const int32_t *prow = part.data() + size_t(r) * size_t(jw);
                float *yrow = y.rowPtr(r0 + rb + r) + j0;
                for (int j = 0; j < jw; ++j)
                    yrow[j] += float(double(prow[j]) * sg *
                                     double(col_scale[size_t(j0 + j)]));
            }
        }
    }
}

/** The chunk pipeline over a weight quantized beforehand: `qw` is
 *  quantizeWeight(w, config.bits), and `w` is read only for each chunk's
 *  bias-correction row. */
Matrix
runChunkPipeline(const Matrix &x, const QuantizedWeight &qw, const Matrix &w,
                 const std::vector<ChunkMeta> *metas,
                 const TenderConfig &config, RequantMode mode,
                 TenderGemmStats *stats, const KernelContext &kc)
{
    TENDER_CHECK(x.cols() == w.rows());
    TENDER_CHECK(qw.codes.rows() == w.rows() && qw.codes.cols() == w.cols());
    TENDER_CHECK(qw.bits == config.bits);
    // Both requant modes share the blocked int16/int32 group accumulate
    // under the pooled backends (bit-identical to their golden kernels —
    // the accumulate is pure integer arithmetic, so the packed arm's SIMD
    // lanes reorder an exact sum and change nothing).
    const bool fast_backend = kc.backend() != Backend::Serial &&
        config.bits <= 8;

    Matrix y(x.rows(), w.cols(), 0.f);
    const auto ranges = chunkRanges(x.rows(), config.rowChunk);
    std::vector<TenderGemmStats> local(ranges.size());

    auto processOne = [&](size_t ci) {
        const auto [r0, r1] = ranges[ci];
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
        const QuantizedChunk qc = quantizeChunk(chunk, meta, config.bits);
        const bool fast = fast_backend && fastEligible(meta, config.bits);
        if (mode == RequantMode::Implicit) {
            const MatrixT<int64_t> acc = fast
                ? chunkAccumulateFast(qc.codes, qw.codes, meta, config, ls,
                                      kc)
                : chunkAccumulateImplicit(qc, qw, config, ls);
            const Matrix correction = biasCorrectionRow(meta, w);
            finishChunkInto(acc, qc, qw, correction, y, r0);
        } else if (fast) {
            const MatrixT<int16_t> xt = packCodesTransposed(qc.codes);
            const int n = w.cols();
            const int64_t blocks = (n + kFastColBlock - 1) / kFastColBlock;
            kc.parallelFor(0, blocks, 1, [&](int64_t b0, int64_t b1) {
                for (int64_t b = b0; b < b1; ++b)
                    fastExplicitCols(xt, qw.codes, meta, qw.colScale,
                                     int(b) * kFastColBlock,
                                     std::min(int(b) * kFastColBlock +
                                              kFastColBlock, n),
                                     y, r0);
            });
            addRowsInto(biasCorrectionRow(meta, w), y, r0,
                        qc.codes.rows());
        } else {
            processChunkExplicit(meta, qc, qw, w, y, r0);
        }
        ++local[ci].chunks;
    };

    // The fast bodies of BOTH requant modes have an inner (column-sliced)
    // parallel axis; the golden bodies always parallelize over chunks,
    // however few.
    forEachChunk(ranges, fast_backend, kc, processOne);

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
    return runChunkPipeline(x, qw, w, nullptr, config, RequantMode::Implicit,
                            stats, kc);
}

bool
foldedProductFits(int k, const TenderConfig &config)
{
    if (config.bits < 2 || config.bits > 16)
        return false;
    const int64_t max_code = maxCode(config.bits);
    int64_t top = max_code; // maxCode * alpha^(G-1): group 0's folded code
    for (int g = 1; g < config.numGroups; ++g) {
        top *= config.alpha;
        if (top > int64_t(std::numeric_limits<int16_t>::max()))
            return false;
    }
    return top <= int64_t(std::numeric_limits<int16_t>::max()) &&
        int64_t(k) * max_code * top <=
        int64_t(std::numeric_limits<int32_t>::max());
}

Matrix
tenderMatmul(const Matrix &x, const QuantizedColumns &cols, const Matrix &w,
             const TenderConfig &config, const KernelContext *kernels)
{
    TENDER_CHECK(x.cols() == w.rows());
    TENDER_CHECK(cols.codes.rows() == w.cols() &&
                 cols.codes.cols() == w.rows());
    TENDER_CHECK(cols.bits == config.bits);
    TENDER_CHECK_MSG(foldedProductFits(w.rows(), config),
                     "folded product needs K * maxCode^2 * alpha^(G-1) <= "
                     "INT32_MAX, K = " << w.rows());
    const KernelContext &kc = kernels ? *kernels : defaultKernels();
    const int n = w.cols();
    Matrix y(x.rows(), n, 0.f);
    const auto ranges = chunkRanges(x.rows(), config.rowChunk);
    forEachChunk(ranges, true, kc, [&](size_t ci) {
        const auto [r0, r1] = ranges[ci];
        const Matrix chunk = x.rowSlice(r0, r1);
        const ChunkMeta meta = decomposeChunk(chunk, config);
        const QuantizedChunk qc = quantizeChunk(chunk, meta, config.bits);
        const Matrix correction = biasCorrectionRow(meta, w);
        MatrixT<int16_t> folded;
        if (!foldChunkCodes(qc, config.alpha, folded)) {
            // Every code is zero (every one-row chunk under bias
            // subtraction: its per-channel bias is the row itself), so
            // the product is the bias-correction row. A zero accumulator finishes to +0.0,
            // and adding the row to it turns a -0.0 correction into +0.0
            // exactly as the full finish does.
            const float *corr = correction.rowPtr(0);
            for (int r = r0; r < r1; ++r) {
                float *yrow = y.rowPtr(r);
                for (int j = 0; j < n; ++j)
                    yrow[j] = 0.f + corr[j];
            }
            return;
        }
        MatrixT<int32_t> acc(r1 - r0, n);
        const int64_t blocks = (n + kFastColBlock - 1) / kFastColBlock;
        kc.parallelFor(0, blocks, 1, [&](int64_t b0, int64_t b1) {
            for (int64_t b = b0; b < b1; ++b)
                foldedDotCols(folded, cols.codes, int(b) * kFastColBlock,
                              std::min(int(b + 1) * kFastColBlock, n), acc);
        });
        finishRowsInto(acc, meta.scale[size_t(meta.groups() - 1)],
                       cols.colScale, correction, y, r0);
    });
    return y;
}

Matrix
tenderMatmulCalibrated(const Matrix &x, const Matrix &w,
                       const std::vector<ChunkMeta> &metas,
                       const TenderConfig &config, TenderGemmStats *stats,
                       const KernelContext *kernels)
{
    TENDER_REQUIRE(!metas.empty(), "calibrated path needs metadata");
    const KernelContext &kc = kernels ? *kernels : defaultKernels();
    return runChunkPipeline(x, quantizeWeight(w, config.bits), w, &metas,
                            config, RequantMode::Implicit, stats, kc);
}

Matrix
tenderMatmulExplicit(const Matrix &x, const Matrix &w,
                     const TenderConfig &config,
                     const KernelContext *kernels)
{
    const KernelContext &kc = kernels ? *kernels : defaultKernels();
    return runChunkPipeline(x, quantizeWeight(w, config.bits), w, nullptr,
                            config, RequantMode::Explicit, nullptr, kc);
}

} // namespace tender
