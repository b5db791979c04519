/**
 * @file
 * Packed SIMD microkernels — the third kernel arm behind KernelContext
 * (Backend::Packed).
 *
 * The golden kernels (tensor/gemm.cc) keep one double sum per output,
 * added in ascending k, so every arm that runs them replays them bit for
 * bit; they vectorize across output columns, 8 double lanes per AVX-512
 * vector. The packed arm drops fp32 bit-parity — it is NMSE-gated against
 * the golden oracle instead (simd_gemm_nmse in BENCH_gemm.json, same
 * discipline as fused_attention_nmse) — for 16 fp32 lanes per vector,
 * packed B panels and a SIMD dot reduction. On one core of a 4-vCPU
 * AVX-512 Xeon (GCC 12, -march=native; golden vs packed, packing
 * included, medians of 5 runs) that no longer pays for gemm at decode
 * shapes: 1x256x256 7 vs 25 us, 8x256x1024 109 vs 174 us. It still does
 * at prefill shapes (157x256x1024 2.0 vs 1.4 ms, 64x1024x256 0.85 vs
 * 0.65 ms) and for gemmTransposedB (1x256x256 28 vs 7 us, 157x256x1024
 * 5.9 vs 3.8 ms). The kernels:
 *
 *  - gemm: B is packed into kNr-wide column panels ([k][kNr] interleave,
 *    zero-padded tail panel) so the inner kernel streams one contiguous
 *    panel row per k step; kMr output rows share each panel load and
 *    accumulate in fp32 registers across kKc-blocked k ranges
 *    (TENDER_PRAGMA_SIMD over the kNr lanes).
 *  - gemmTransposedB: B's rows are already contiguous k-vectors (the
 *    attention-score layout), so the kernel is a SIMD dot-product
 *    reduction per output element, j-tiled for cache residency.
 *  - gemmInt8: integer arithmetic is exact under any summation order, so
 *    this kernel stays BIT-IDENTICAL to the golden one while still
 *    vectorizing: when the int32 accumulator is proven safe and the
 *    code panel fits int16, B is packed into int16 panels and widened
 *    back to int32 in-register; otherwise SIMD reductions run directly
 *    on the widened codes (int32 or checked-int64 accumulator, exactly
 *    the golden eligibility split).
 *
 * Every kernel here is ROW-LOCAL and PARTITION-INDEPENDENT: the
 * accumulation order of one output element depends only on its k axis
 * (fixed kKc block boundaries, which are a function of K alone), never on
 * the element's position in the m/n tile grid, the row-band split, or the
 * worker count. That preserves the runtime invariants that matter even on
 * the NMSE-gated arm: decode == prefill per hidden row, batch-size /
 * admission-order / worker-count independence, and multi-query panel ==
 * per-head attention, all bit-exact *within* the packed arm.
 *
 * With -DTENDER_SIMD=OFF the same loops compile without the pragmas
 * (scalar fallback, slower than the golden kernels: 1.5-5x for gemm and
 * 2-8x for gemmTransposedB at the shapes above); TENDER_SIMD=off at
 * runtime removes the arm entirely (see util/cpu_features.h).
 */

#ifndef TENDER_TENSOR_PACKED_GEMM_H
#define TENDER_TENSOR_PACKED_GEMM_H

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace tender {

namespace packed_detail {

/** Panel width: output columns computed per inner-kernel call. 16 fp32
 *  lanes = one AVX-512 vector / two AVX2 vectors. */
constexpr int kNr = 16;

/** Register rows: output rows sharing one packed-panel stream. */
constexpr int kMr = 4;

/** k-block: panel rows kept hot in L1/L2 while every output row tile
 *  passes over them. Boundaries depend only on K (shape), never on the
 *  tile position, so per-element accumulation order is partition-free. */
constexpr int kKc = 256;

/** Minimum A rows before gemmInt8 packs B to int16 panels — below this
 *  the pack pass costs more than it saves (1-row decode shapes). The
 *  result is exact either way; the threshold is perf-only. */
constexpr int kInt8PackMinRows = 4;

/** B (k x n) repacked into ceil(n/kNr) zero-padded [k][kNr] panels. */
struct PackedB
{
    std::vector<float> data;
    int k = 0;
    int n = 0;
    int panels = 0;

    /** Panel `p`'s row for reduction index `kk`: kNr contiguous floats. */
    const float *panelRow(int p, int kk) const
    {
        return data.data() +
            (size_t(p) * size_t(k) + size_t(kk)) * size_t(kNr);
    }
};

PackedB packB(const Matrix &b);

/** Packed fp32 C = A * B over output rows [r0, r1); c must be zeroed. */
void packedGemmRows(const Matrix &a, const PackedB &bp, Matrix &c, int r0,
                    int r1);

/** Packed fp32 C = A * B^T over output rows [r0, r1). */
void packedGemmTransposedBRows(const Matrix &a, const Matrix &b, Matrix &c,
                               int r0, int r1);

/** B (n x k int32 codes, |v| <= INT16_MAX) repacked into int16 panels:
 *  lane = row within a kNr-row group, contiguous per reduction index. */
struct PackedInt16B
{
    std::vector<int16_t> data;
    int k = 0;
    int n = 0;
    int panels = 0;

    const int16_t *panelRow(int p, int kk) const
    {
        return data.data() +
            (size_t(p) * size_t(k) + size_t(kk)) * size_t(kNr);
    }
};

PackedInt16B packBInt16(const IntMatrix &b);

/** Exact int8-range panel product over output rows [r0, r1) on an int16
 *  pack, int32 accumulators (caller must have proven narrow safety). */
void packedGemmInt8PackedRows(const IntMatrix &a, const PackedInt16B &bp,
                              IntMatrix &c, int r0, int r1);

/** Exact int8-range panel product over output rows [r0, r1) directly on
 *  the widened codes; `narrow` selects the int32 accumulator (caller
 *  proven) vs the checked-int64 path — the golden eligibility split. */
void packedGemmInt8DirectRows(const IntMatrix &a, const IntMatrix &b,
                              IntMatrix &c, bool narrow, int r0, int r1);

} // namespace packed_detail

} // namespace tender

#endif // TENDER_TENSOR_PACKED_GEMM_H
