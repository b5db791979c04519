/**
 * @file
 * Tender matrix multiplication with runtime requantization (Section III).
 *
 * The implicit path (Eq. 2) accumulates group partial sums in an integer
 * accumulator and rescales between groups with a single multiply-by-alpha
 * (a 1-bit left shift for alpha = 2), exactly like the Multi-Scale Systolic
 * Array. The explicit path (Eq. 1) dequantizes each group's partial product
 * separately and adds in floating point — the costly reference Tender
 * avoids. Both are exposed so tests can prove them equivalent.
 *
 * All entry points share one chunk pipeline (decompose -> quantize ->
 * accumulate -> dequantize into the chunk's output rows -> add the chunk's
 * bias-correction row) over a weight quantized into one layout, N x K
 * codes (core/tender_quant.h): the fp32-weight entry points quantize it
 * first, and the QuantizedWeight overloads read a weight quantized once up
 * front, bit-identical to the per-call path. Chunks are the primary
 * parallel axis over the KernelContext's pool: Tender's row-chunk
 * decomposition makes them independent by construction. A segmented
 * product (tenderMatmulSegments) runs a stack of independent inputs, such
 * as a decode step's requests, as one pass: chunk boundaries restart at
 * every segment boundary, so each segment's metadata is a function of its
 * own rows and its output rows equal a product of that segment alone, bit
 * for bit.
 *
 * The golden walk (chunkAccumulateImplicit) is the oracle: it runs group
 * by group with int64 accumulators, checks every accumulator against int32
 * after each rescale and after the final group (TenderConfig::
 * checkOverflow) and feeds TenderGemmStats. It serves the Serial backend,
 * every stats request and every chunk outside the fold bound. It and the
 * explicit kernel read the weight's codes one 128-column slice at a time,
 * transposed in 32 x 32 tiles.
 *
 * On the pooled backends, with no stats requested, a chunk folds when its
 * codes allow. Adjacent group scales are exactly alpha apart, so the shift
 * between groups distributes over the sum:
 *
 *     A_{G-1} = sum_c (q_c * alpha^(G-1-g(c))) * w_c.
 *
 * Each code is multiplied by its group's alpha^(G-1-g) into int16, and one
 * int16 dot-product GEMM with int32 accumulation against the N x K weight
 * codes gives A_{G-1}, finished with the golden arithmetic. The pass that
 * folds the codes also checks the per-chunk bound, foldedChunkFits: every
 * folded code fits int16 and, per chunk row,
 *
 *     S = maxCode * sum_c |q_c * alpha^(G-1-g(c))| <= INT32_MAX.
 *
 * Why the fold is then bit-identical: the golden walk checks alpha * A_g
 * after each rescale (g <= G-2) and A_{G-1} at the end, where
 *
 *     A_g = sum_{g' <= g} alpha^(g-g') * sum_{c in group g'} q_c * w_c.
 *
 * Each term of alpha * A_g carries alpha^(g+1-g') <= alpha^(G-1-g') (alpha
 * >= 1) and |w_c| <= maxCode, so every checked accumulator, and every
 * partial sum of the int32 dot product in any order, is at most S. So the
 * fold is exact and none of the golden walk's overflow checks could have
 * fired; a chunk outside the bound runs the golden walk, which still panics
 * where its accumulator really overflows. A chunk whose codes are all zero
 * skips the GEMM: its accumulator is zero. The fold kernel is a plain
 * register-tiled loop without TENDER_PRAGMA_SIMD: GCC 12 with
 * -march=native compiles its int16 reduction to dot-product instructions
 * (vpdpwssd) on its own, and the pragma in its usual place, on the inner
 * loop, keeps the reduction scalar.
 *
 * One-row chunks. Under bias subtraction a one-row chunk is its own bias
 * (envelopeBias(v, v) == v for |v| <= FLT_MAX / 2), so every code is zero
 * and its product is its bias-correction row: a Tender decode step adds no
 * quantization error. On the fold's domain (pooled backends, no stats,
 * implicit path, dynamic metadata, biasSubtract on) such a chunk skips
 * decompose, quantize and fold; a row holding NaN, +-inf or |v| > FLT_MAX
 * / 2 takes the general path, which keeps its result.
 *
 * Bias correction. One stacked pass gives every chunk of a product its
 * correction row, corr(j) = sum_c b_c * w(c, j), in fp32 over the channels
 * in ascending order, zero biases skipped, each term written float(b *
 * double(w(c, j))) with b a widened float. It reads each weight row once
 * for a block of chunks and splits over (chunk block x column slice)
 * tasks; each output element's sum stays in one task, so every partition
 * and worker count gives the same bits. How a term rounds depends on the
 * build. The double product of two floats is exact, so GCC narrows it to
 * an fp32 multiply; with -march=native (TENDER_NATIVE_ARCH, the default)
 * on an FMA-capable host it then fuses that multiply with the running sum
 * into one FMA, rounding once per term, while a portable build
 * (-DTENDER_NATIVE_ARCH=OFF) rounds the product and the sum separately.
 * Each build is deterministic, but the two round differently, so
 * bit-exactness holds within one build, not across them. Keep the
 * expression shape: a rewrite whose product read a double copy of the
 * weight row compiled unfused and changed the native results.
 */

#ifndef TENDER_CORE_TENDER_GEMM_H
#define TENDER_CORE_TENDER_GEMM_H

#include "core/tender_quant.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"

namespace tender {

/** Counters from a Tender GEMM (feed the tests and perf/energy models). A
 *  stats request runs the golden walk on every backend, so the counters
 *  describe its group walk. */
struct TenderGemmStats
{
    int64_t macs = 0;          ///< integer multiply-accumulates
    int64_t rescales = 0;      ///< group-boundary accumulator shifts
    int64_t chunks = 0;        ///< row chunks processed
    /** Calibrated-path chunks beyond the calibrated meta list that reused
     *  the final calibrated entry (static calibration saw a shorter
     *  sequence than the eval tensor). Silent before; now accounted. */
    int64_t metaReuses = 0;
    int64_t peakAbsAcc = 0;    ///< peak |accumulator| observed
    bool overflow32 = false;   ///< accumulator left the int32 range
};

/**
 * Integer core of the implicit pipeline on one quantized chunk: returns
 * the final integer accumulator A_{G-1} (Eq. 2) for each output element.
 * This is the value the MSA produces before the VPU's final dequantization.
 * The golden walk: single-threaded, the oracle every fold is checked
 * against.
 */
MatrixT<int64_t> chunkAccumulateImplicit(const QuantizedChunk &qc,
                                         const QuantizedWeight &qw,
                                         const TenderConfig &config,
                                         TenderGemmStats *stats = nullptr);

/** True when the chunk's folded product is exact and none of the golden
 *  walk's overflow checks could fire: every folded code
 *  |q_c * alpha^(G-1-g(c))| fits int16 and, per row, maxCode * sum_c
 *  |folded code| fits int32 (see the file comment). A chunk whose codes
 *  are all zero fits. */
bool foldedChunkFits(const QuantizedChunk &qc, const TenderConfig &config);

/**
 * Full Tender GEMM with dynamic (tensor-derived) decomposition:
 * chunk rows, decompose, quantize, implicit-requantize, dequantize.
 * kernels == nullptr uses defaultKernels().
 */
Matrix tenderMatmul(const Matrix &x, const Matrix &w,
                    const TenderConfig &config,
                    TenderGemmStats *stats = nullptr,
                    const KernelContext *kernels = nullptr);

/** tenderMatmul against a weight quantized beforehand: `qw` must be
 *  quantizeWeight(w, config.bits). Runs the same pipeline without the
 *  per-call weight quantization, so the result is bit-identical to
 *  tenderMatmul(x, w, ...); `w` is read only by the bias correction. */
Matrix tenderMatmul(const Matrix &x, const QuantizedWeight &qw,
                    const Matrix &w, const TenderConfig &config,
                    TenderGemmStats *stats = nullptr,
                    const KernelContext *kernels = nullptr);

/** tenderMatmul over a stack of independent segments: x's rows are the
 *  segments' rows back to back, segmentRows (not empty) their row counts,
 *  each > 0, summing to x.rows(). Chunk boundaries restart at every
 *  segment boundary, so each segment's output rows are bit-identical to
 *  tenderMatmul(segment, qw, w, ...); all chunks of all segments run as
 *  one pass, sharing one stacked bias-correction pass. */
Matrix tenderMatmulSegments(const Matrix &x,
                            const std::vector<int> &segmentRows,
                            const QuantizedWeight &qw, const Matrix &w,
                            const TenderConfig &config,
                            TenderGemmStats *stats = nullptr,
                            const KernelContext *kernels = nullptr);

/** Same pipeline but with pre-calibrated per-chunk metadata. Chunks beyond
 *  the calibrated list reuse the final calibrated entry; each reuse is
 *  counted in TenderGemmStats::metaReuses. */
Matrix tenderMatmulCalibrated(const Matrix &x, const Matrix &w,
                              const std::vector<ChunkMeta> &metas,
                              const TenderConfig &config,
                              TenderGemmStats *stats = nullptr,
                              const KernelContext *kernels = nullptr);

/** Explicit-requantization reference (Eq. 1): one integer GEMM per group,
 *  each dequantized with its own scale and accumulated in FP. Always the
 *  golden kernel, parallel over chunks only. */
Matrix tenderMatmulExplicit(const Matrix &x, const Matrix &w,
                            const TenderConfig &config,
                            const KernelContext *kernels = nullptr);

} // namespace tender

#endif // TENDER_CORE_TENDER_GEMM_H
