/**
 * @file
 * Matrix-multiplication kernels.
 *
 * The FP32 path is the numerical reference for every quantization scheme;
 * the integer paths operate on widened quantized codes and accumulate in
 * int64 so overflow behaviour of the modelled 32-bit hardware accumulator
 * can be *checked* rather than silently wrapped (see core/tender_gemm).
 *
 * These free functions are the single-threaded golden kernels. Production
 * callers go through tensor/kernels.h (KernelContext), whose threaded
 * backend dispatches the row-band bodies below (gemm_detail) over a thread
 * pool — same arithmetic per output element, so results are bit-identical.
 *
 * The fp32 arithmetic contract (gemm, gemmTransposedB): each output is the
 * float of a double sum that starts at 0.0 and adds double(a_p) *
 * double(b_p) in ascending p. A product of two floats is exact in double,
 * so only the adds round. Hence FMA contraction cannot change a result,
 * a build without -march=native gives the same bits, and any tiling or
 * row partition does too: the kernels are free to block, tile and
 * vectorize across output elements as long as each sum keeps its order.
 */

#ifndef TENDER_TENSOR_GEMM_H
#define TENDER_TENSOR_GEMM_H

#include <cstdint>
#include <type_traits>

#include "tensor/matrix.h"

namespace tender {

/** C = A(MxK) * B(KxN) under the fp32 contract above. */
Matrix gemm(const Matrix &a, const Matrix &b);

/** C = A * B^T (attention scores Q*K^T, the readout) under the same
 *  contract. */
Matrix gemmTransposedB(const Matrix &a, const Matrix &b);

/** Integer GEMM: int codes in, int64 accumulation out. */
MatrixT<int64_t> gemmInt(const IntMatrix &a, const IntMatrix &b);

/**
 * Integer panel product C = A * B^T on quantized codes: A is m x k, B is
 * n x k (row-major code panels — the attention layout, where B's rows are
 * cached key vectors read in place), C is m x n in int32.
 *
 * This is the int8xint8->int32 kernel of the fused quantized-KV attention
 * path. Codes stay widened in their int32 pages (repacking would defeat
 * the zero-copy read), but the accumulate follows the discipline of
 * core/tender_gemm's folded product: when the worst-case |sum| provably
 * fits, the inner product runs in an int32 accumulator (the modeled
 * 32-bit hardware accumulator); otherwise it accumulates in int64 and
 * *checks* the int32 narrowing rather than silently wrapping. Either way
 * the result is exact, so serial and threaded backends are bit-identical
 * by construction.
 *
 * `abs_bound_a` / `abs_bound_b` are optional caller-known |value| bounds
 * (quantized codes are bounded by construction); pass -1 to have the
 * eligibility scan read the operand instead. The attention hot path
 * passes both bounds so the immutable chunk codes are not rescanned on
 * every decode step.
 */
IntMatrix gemmInt8(const IntMatrix &a, const IntMatrix &b,
                   int64_t abs_bound_a = -1, int64_t abs_bound_b = -1);

/** C = alpha * A + beta * B elementwise. */
Matrix axpby(float alpha, const Matrix &a, float beta, const Matrix &b);

/** Row-broadcast add: out(r,c) = m(r,c) + row(0,c). */
Matrix addRowVector(const Matrix &m, const Matrix &row);

/** Row-band kernel bodies shared by the serial reference above and the
 *  threaded backend of tensor/kernels.h. Any band gives the same bits. */
namespace gemm_detail {

template <int N> using Int = std::integral_constant<int, N>;

/** Call band(Int<R>{}, i) over rows [r0, r1) in bands of R = MR rows, the
 *  rows left over forming one smaller band: how the register-tiled
 *  kernels instantiate their tile heights. */
template <int MR, class Band>
inline void
forEachBand(int r0, int r1, const Band &band)
{
    int i = r0;
    for (; i + MR <= r1; i += MR)
        band(Int<MR>{}, i);
    if constexpr (MR > 1)
        if (i < r1)
            forEachBand<MR - 1>(i, r1, band);
}

/** Rows per task of the threaded backend's fp32 gemm. */
constexpr int kGemmRowBlock = 64;

/** Rows per register tile of gemmTransposedBRows, and per task of the
 *  threaded backend's gemmTransposedB, so a task fills whole tiles. */
constexpr int kTransposedRowTile = 4;

/** FP32 C = A * B over output rows [r0, r1). */
void gemmRowBand(const Matrix &a, const Matrix &b, Matrix &c, int r0, int r1);

/** A * B^T over output rows [r0, r1). */
void gemmTransposedBRows(const Matrix &a, const Matrix &b, Matrix &c, int r0,
                         int r1);

/** Integer kernel over output rows [r0, r1); c must be zeroed. */
void gemmIntRows(const IntMatrix &a, const IntMatrix &b, MatrixT<int64_t> &c,
                 int r0, int r1);

/** True when one gemmInt8 inner product provably fits an int32
 *  accumulator at the panels' code magnitudes (the analogue of
 *  foldedChunkFits in core/tender_gemm.h). Operands whose bound is
 *  negative are scanned. */
bool gemmInt8NarrowOk(const IntMatrix &a, const IntMatrix &b,
                      int64_t abs_bound_a, int64_t abs_bound_b);

/** gemmInt8 panel body over output rows [r0, r1); `narrow` selects the
 *  int32 accumulator (caller must have proven eligibility). */
void gemmInt8PanelRows(const IntMatrix &a, const IntMatrix &b, IntMatrix &c,
                       bool narrow, int r0, int r1);

/** axpby over flat elements [i0, i1). */
void axpbyRange(float alpha, const Matrix &a, float beta, const Matrix &b,
                Matrix &out, size_t i0, size_t i1);

/** Row-broadcast add over rows [r0, r1); out must already hold m's rows. */
void addRowVectorRows(const Matrix &row, Matrix &out, int r0, int r1);

} // namespace gemm_detail

} // namespace tender

#endif // TENDER_TENSOR_GEMM_H
