/**
 * @file
 * Tender matrix multiplication with runtime requantization (Section III).
 *
 * The implicit path (Eq. 2) accumulates group partial sums in an integer
 * accumulator and rescales between groups with a single multiply-by-alpha
 * (a 1-bit left shift for alpha = 2), exactly like the Multi-Scale Systolic
 * Array. The explicit path (Eq. 1) dequantizes each group's partial product
 * separately and adds in floating point — the costly reference Tender
 * avoids. Both are exposed so tests can prove them equivalent and so the
 * Fig. 13 harness can model their performance difference.
 *
 * All entry points share one chunk pipeline (decompose -> quantize ->
 * accumulate-with-requant -> finish-into-output-view) over a weight that
 * is already quantized: the fp32-weight entry points quantize it first,
 * and the QuantizedWeight overload of tenderMatmul skips that step for a
 * weight quantized once up front, bit-identical to the per-call path.
 * Per-chunk tasks are dispatched over the KernelContext's thread pool:
 * Tender's row-chunk decomposition makes chunks embarrassingly parallel by
 * construction. The threaded backend additionally runs a cache-blocked
 * int16/int32 variant of the group accumulate — shared by the implicit AND
 * explicit modes (the explicit golden kernel computes one integer partial
 * per group, so the blocked integer partials slot into the identical
 * per-element FP sequence); both it and the golden kernels read the
 * weight's int16 codes in place. Integer arithmetic is exact, so results
 * are bit-identical to the golden serial kernels and the determinism
 * tests assert exact equality.
 *
 * The folded product (the QuantizedColumns overload) replaces the group
 * walk for weights inside the fold bound. Adjacent group scales are
 * exactly alpha apart, so the shift between groups distributes over the
 * sum: A_{G-1} = sum_c (q_c * alpha^(G-1-g(c))) * w_c. Each chunk is
 * decomposed and quantized as above, each code is multiplied by its
 * group's alpha^(G-1-g) into int16, and one int16 dot-product GEMM with
 * int32 accumulation against the weight's N x K codes gives A_{G-1},
 * finished with the same arithmetic. The bound, foldedProductFits:
 * maxCode * alpha^(G-1) <= INT16_MAX and K * maxCode^2 * alpha^(G-1) <=
 * INT32_MAX. It makes the fold exact and proves that none of the golden
 * kernel's group-boundary overflow checks could have fired, so products
 * are bit-identical to tenderMatmul(x, w) on every backend. At 8 bits,
 * G = 8 and alpha = 2 it holds up to K = 1040. A chunk whose codes are
 * all zero skips the GEMM: its product is the bias-correction row.
 * TenderScheme::prepare chooses between the two forms once, from the
 * weight's shape. The fold kernel is a plain register-tiled loop without
 * TENDER_PRAGMA_SIMD: GCC 12 with -march=native compiles its int16
 * reduction to dot-product instructions (vpdpwssd) on its own, and the
 * pragma in its usual place, on the inner loop, keeps the reduction
 * scalar.
 */

#ifndef TENDER_CORE_TENDER_GEMM_H
#define TENDER_CORE_TENDER_GEMM_H

#include "core/tender_quant.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"

namespace tender {

/** Counters from a Tender GEMM (feed the tests and perf/energy models). */
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
 * Single-threaded golden kernel; the pipeline substitutes a blocked
 * bit-identical variant under the threaded backend.
 */
MatrixT<int64_t> chunkAccumulateImplicit(const QuantizedChunk &qc,
                                         const QuantizedWeight &qw,
                                         const TenderConfig &config,
                                         TenderGemmStats *stats = nullptr);

/** Dequantize the accumulator and add the bias correction row. */
Matrix finishChunk(const MatrixT<int64_t> &acc, const QuantizedChunk &qc,
                   const QuantizedWeight &qw, const Matrix &bias_correction);

/** As finishChunk, but writes into rows [r0, r0 + acc.rows()) of y — the
 *  pre-sliced output view the chunk pipeline hands each chunk task. */
void finishChunkInto(const MatrixT<int64_t> &acc, const QuantizedChunk &qc,
                     const QuantizedWeight &qw,
                     const Matrix &bias_correction, Matrix &y, int r0);

/** Bias-times-weight correction row (1 x N) for a chunk's metadata. */
Matrix biasCorrectionRow(const ChunkMeta &meta, const Matrix &w);

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
 *  tenderMatmul(x, w, ...); `w` is read only for each chunk's
 *  bias-correction row. */
Matrix tenderMatmul(const Matrix &x, const QuantizedWeight &qw,
                    const Matrix &w, const TenderConfig &config,
                    TenderGemmStats *stats = nullptr,
                    const KernelContext *kernels = nullptr);

/** True when the folded product is exact for a K-row weight under
 *  `config`: maxCode * alpha^(G-1) fits int16 and K * maxCode^2 *
 *  alpha^(G-1) fits int32 (see the file comment). */
bool foldedProductFits(int k, const TenderConfig &config);

/** The folded product against a weight quantized into columns: `cols`
 *  must be quantizeWeightColumns(w, config.bits), and
 *  foldedProductFits(w.rows(), config) must hold. Bit-identical to
 *  tenderMatmul(x, w, config) on every backend; `w` is read only for each
 *  chunk's bias-correction row. */
Matrix tenderMatmul(const Matrix &x, const QuantizedColumns &cols,
                    const Matrix &w, const TenderConfig &config,
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
 *  each dequantized with its own scale and accumulated in FP. Under the
 *  threaded backend the group partials run through the same blocked
 *  int16/int32 accumulate as the implicit path, bit-identical to the
 *  serial kernel. */
Matrix tenderMatmulExplicit(const Matrix &x, const Matrix &w,
                            const TenderConfig &config,
                            const KernelContext *kernels = nullptr);

} // namespace tender

#endif // TENDER_CORE_TENDER_GEMM_H
