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
 * weight quantized once up front (how TenderScheme::prepare serves every
 * projection of a decode session), bit-identical to the per-call path.
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
