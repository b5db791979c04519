#include "tensor/gemm.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

namespace tender {

namespace gemm_detail {

namespace {

// Register tiles of the fp32 kernels. A tile keeps one double accumulator
// per output element across its reduction, so the compiler vectorizes
// over output columns while every sum keeps the golden order (gemm.h).
// Plain loops and no pragma, as dotTile in core/tender_gemm.cc: GCC 12
// with -march=native keeps a 6 x 32 gemm tile in 24 zmm registers and
// converts each B row slice to double once for all six rows. At
// 157 x 256 x 1024 on one core it ran 19 GMAC/s, where 4 x 24 and 8 x 16
// tiles ran 9 and 1.2.

constexpr int kMr = 6;   ///< gemm tile rows
constexpr int kNr = 32;  ///< gemm tile columns
constexpr int kKc = 256; ///< reduction rows per block
constexpr int kMc = 48;  ///< output rows per block
constexpr int kNc = 128; ///< output columns per block
constexpr int kTransposedColTile = 8; ///< gemmTransposedB tile columns

/** Reduction rows [p0, p1) of the output block at (i0, j0). Blocks
 *  after the first start from the double sums the previous one left in
 *  `partial` (kMc x kNc); the last one rounds into C. */
struct GemmBlock
{
    const Matrix &a, &b;
    Matrix &c;
    int i0, j0, p0, p1;
    double *partial;
};

/** Rows [i, i + MR) by columns [j, j + NR) of one reduction block. */
template <int MR, int NR>
inline void
gemmTile(const GemmBlock &blk, int i, int j)
{
    const int k = blk.a.cols();
    const float *a = blk.a.rowPtr(i);
    double *partial = blk.partial + (i - blk.i0) * kNc + (j - blk.j0);
    double acc[MR][NR];
    for (int r = 0; r < MR; ++r)
        for (int q = 0; q < NR; ++q)
            acc[r][q] = blk.p0 == 0 ? 0.0 : partial[r * kNc + q];
    for (int p = blk.p0; p < blk.p1; ++p) {
        const float *brow = blk.b.rowPtr(p) + j;
        double bv[NR];
        for (int q = 0; q < NR; ++q)
            bv[q] = double(brow[q]);
        for (int r = 0; r < MR; ++r) {
            const double av = double(a[size_t(r) * size_t(k) + size_t(p)]);
            for (int q = 0; q < NR; ++q)
                acc[r][q] += av * bv[q];
        }
    }
    if (blk.p1 < k) {
        for (int r = 0; r < MR; ++r)
            for (int q = 0; q < NR; ++q)
                partial[r * kNc + q] = acc[r][q];
        return;
    }
    for (int r = 0; r < MR; ++r) {
        float *crow = blk.c.rowPtr(i + r) + j;
        for (int q = 0; q < NR; ++q)
            crow[q] = float(acc[r][q]);
    }
}

/** Rows [i, i + MR) by columns [j, j + NC) of C = A * B^T: MR * NC
 *  independent sums, each sequential in p, sharing each B column's
 *  conversion to double across the MR rows. */
template <int MR, int NC>
inline void
transposedTile(const Matrix &a, const Matrix &b, Matrix &c, int i, int j)
{
    const size_t k = size_t(a.cols());
    const float *ap = a.rowPtr(i);
    const float *bp = b.rowPtr(j);
    double acc[MR][NC] = {};
    for (size_t p = 0; p < k; ++p) {
        double bv[NC];
        for (int q = 0; q < NC; ++q)
            bv[q] = double(bp[q * k + p]);
        for (int r = 0; r < MR; ++r) {
            const double av = double(ap[r * k + p]);
            for (int q = 0; q < NC; ++q)
                acc[r][q] += av * bv[q];
        }
    }
    for (int r = 0; r < MR; ++r) {
        float *crow = c.rowPtr(i + r) + j;
        for (int q = 0; q < NC; ++q)
            crow[q] = float(acc[r][q]);
    }
}

} // namespace

void
gemmRowBand(const Matrix &a, const Matrix &b, Matrix &c, int r0, int r1)
{
    const int k = a.cols(), n = b.cols();
    // Blocking keeps a tile's kKc x kNr slice of B in L1 across the
    // block's bands: 512 x 4096 x 4096 took 0.6-0.7 s on one core, against
    // 2.7-3.0 s with each tile running the whole K.
    double partial[kMc * kNc];
    for (int i0 = r0; i0 < r1; i0 += kMc) {
        const int i1 = std::min(i0 + kMc, r1);
        for (int j0 = 0; j0 < n; j0 += kNc) {
            const int j1 = std::min(j0 + kNc, n);
            int p0 = 0;
            do { // once for k == 0, which writes the empty sums
                const GemmBlock blk{a, b, c, i0, j0, p0,
                                    std::min(p0 + kKc, k), partial};
                const auto tiles = [&](auto cols, int j) {
                    forEachBand<kMr>(i0, i1, [&](auto rows, int i) {
                        gemmTile<decltype(rows)::value,
                                 decltype(cols)::value>(blk, i, j);
                    });
                };
                // Ragged columns: tiles 8 doubles wide, then one.
                int j = j0;
                for (; j + kNr <= j1; j += kNr)
                    tiles(Int<kNr>{}, j);
                for (; j + 8 <= j1; j += 8)
                    tiles(Int<8>{}, j);
                for (; j < j1; ++j)
                    tiles(Int<1>{}, j);
                p0 = blk.p1;
            } while (p0 < k);
        }
    }
}

void
gemmTransposedBRows(const Matrix &a, const Matrix &b, Matrix &c, int r0,
                    int r1)
{
    const int n = b.rows();
    const auto tiles = [&](auto cols, int j) {
        forEachBand<kTransposedRowTile>(r0, r1, [&](auto rows, int i) {
            transposedTile<decltype(rows)::value,
                           decltype(cols)::value>(a, b, c, i, j);
        });
    };
    int j = 0;
    for (; j + kTransposedColTile <= n; j += kTransposedColTile)
        tiles(Int<kTransposedColTile>{}, j);
    for (; j < n; ++j)
        tiles(Int<1>{}, j);
}

void
gemmIntRows(const IntMatrix &a, const IntMatrix &b, MatrixT<int64_t> &c,
            int r0, int r1)
{
    const int k = a.cols(), n = b.cols();
    for (int i = r0; i < r1; ++i) {
        const int32_t *arow = a.rowPtr(i);
        for (int p = 0; p < k; ++p) {
            const int64_t av = arow[p];
            if (av == 0)
                continue;
            const int32_t *brow = b.rowPtr(p);
            int64_t *crow = c.rowPtr(i);
            for (int j = 0; j < n; ++j)
                crow[j] += av * int64_t(brow[j]);
        }
    }
}

bool
gemmInt8NarrowOk(const IntMatrix &a, const IntMatrix &b,
                 int64_t abs_bound_a, int64_t abs_bound_b)
{
    int64_t ma = abs_bound_a, mb = abs_bound_b;
    if (ma < 0) {
        ma = 0;
        for (int32_t v : a.data())
            ma = std::max(ma, std::abs(int64_t(v)));
    }
    if (mb < 0) {
        mb = 0;
        for (int32_t v : b.data())
            mb = std::max(mb, std::abs(int64_t(v)));
    }
    // Shifted codes are at most a few bits over int8; anything bigger is
    // not a code panel, so don't risk ma * mb * k overflowing the bound
    // arithmetic itself.
    if (ma >= (int64_t{1} << 20) || mb >= (int64_t{1} << 20))
        return false;
    return ma * mb * int64_t(a.cols()) <=
        int64_t(std::numeric_limits<int32_t>::max());
}

void
gemmInt8PanelRows(const IntMatrix &a, const IntMatrix &b, IntMatrix &c,
                  bool narrow, int r0, int r1)
{
    const int k = a.cols(), n = b.rows();
    if (narrow) {
        for (int i = r0; i < r1; ++i) {
            const int32_t *__restrict arow = a.rowPtr(i);
            int32_t *__restrict crow = c.rowPtr(i);
            for (int j = 0; j < n; ++j) {
                const int32_t *__restrict brow = b.rowPtr(j);
                int32_t acc = 0;
                for (int p = 0; p < k; ++p)
                    acc += arow[p] * brow[p];
                crow[j] = acc;
            }
        }
        return;
    }
    for (int i = r0; i < r1; ++i) {
        const int32_t *arow = a.rowPtr(i);
        int32_t *crow = c.rowPtr(i);
        for (int j = 0; j < n; ++j) {
            const int32_t *brow = b.rowPtr(j);
            int64_t acc = 0;
            for (int p = 0; p < k; ++p)
                acc += int64_t(arow[p]) * int64_t(brow[p]);
            TENDER_CHECK_MSG(
                std::abs(acc) <=
                    int64_t(std::numeric_limits<int32_t>::max()),
                "gemmInt8: 32-bit accumulator overflow (panel " << a.rows()
                << "x" << k << " * " << n << "x" << k << "^T)");
            crow[j] = int32_t(acc);
        }
    }
}

void
axpbyRange(float alpha, const Matrix &a, float beta, const Matrix &b,
           Matrix &out, size_t i0, size_t i1)
{
    for (size_t i = i0; i < i1; ++i)
        out.data()[i] = alpha * a.data()[i] + beta * b.data()[i];
}

void
addRowVectorRows(const Matrix &row, Matrix &out, int r0, int r1)
{
    for (int r = r0; r < r1; ++r)
        for (int c = 0; c < out.cols(); ++c)
            out(r, c) += row(0, c);
}

} // namespace gemm_detail

Matrix
gemm(const Matrix &a, const Matrix &b)
{
    TENDER_CHECK_MSG(a.cols() == b.rows(),
                     "gemm shape mismatch: " << a.rows() << "x" << a.cols()
                     << " * " << b.rows() << "x" << b.cols());
    Matrix c(a.rows(), b.cols(), 0.f);
    gemm_detail::gemmRowBand(a, b, c, 0, a.rows());
    return c;
}

Matrix
gemmTransposedB(const Matrix &a, const Matrix &b)
{
    TENDER_CHECK_MSG(a.cols() == b.cols(),
                     "gemmTransposedB shape mismatch: " << a.rows() << "x"
                     << a.cols() << " * (" << b.rows() << "x" << b.cols()
                     << ")^T");
    Matrix c(a.rows(), b.rows(), 0.f);
    gemm_detail::gemmTransposedBRows(a, b, c, 0, a.rows());
    return c;
}

MatrixT<int64_t>
gemmInt(const IntMatrix &a, const IntMatrix &b)
{
    TENDER_CHECK(a.cols() == b.rows());
    MatrixT<int64_t> c(a.rows(), b.cols(), 0);
    gemm_detail::gemmIntRows(a, b, c, 0, a.rows());
    return c;
}

IntMatrix
gemmInt8(const IntMatrix &a, const IntMatrix &b, int64_t abs_bound_a,
         int64_t abs_bound_b)
{
    TENDER_CHECK_MSG(a.cols() == b.cols(),
                     "gemmInt8 shape mismatch: " << a.rows() << "x"
                     << a.cols() << " * (" << b.rows() << "x" << b.cols()
                     << ")^T");
    IntMatrix c(a.rows(), b.rows());
    gemm_detail::gemmInt8PanelRows(
        a, b, c,
        gemm_detail::gemmInt8NarrowOk(a, b, abs_bound_a, abs_bound_b), 0,
        a.rows());
    return c;
}

Matrix
axpby(float alpha, const Matrix &a, float beta, const Matrix &b)
{
    TENDER_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
    Matrix out(a.rows(), a.cols());
    gemm_detail::axpbyRange(alpha, a, beta, b, out, 0, a.size());
    return out;
}

Matrix
addRowVector(const Matrix &m, const Matrix &row)
{
    TENDER_CHECK(row.rows() == 1 && row.cols() == m.cols());
    Matrix out = m;
    gemm_detail::addRowVectorRows(row, out, 0, m.rows());
    return out;
}

} // namespace tender
