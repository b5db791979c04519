/**
 * @file
 * Dense row-major matrix types used throughout the library.
 *
 * Two concrete instantiations cover everything in the paper's pipeline:
 * Matrix (float32 master data) and IntMatrix (int32 storage for quantized
 * codes of any bit width up to 8; codes are kept widened so the same type
 * serves INT4 and INT8 paths without bit packing games in the algorithm
 * code — the memory-traffic models account for true packed sizes).
 */

#ifndef TENDER_TENSOR_MATRIX_H
#define TENDER_TENSOR_MATRIX_H

#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace tender {

/** Dense row-major matrix of T with bounds-checked element access. */
template <typename T>
class MatrixT
{
  public:
    MatrixT() = default;
    MatrixT(int rows, int cols, T fill = T{})
        : rows_(rows), cols_(cols),
          data_(size_t(rows) * size_t(cols), fill)
    {
        TENDER_CHECK(rows >= 0 && cols >= 0);
    }

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    T &operator()(int r, int c)
    {
        TENDER_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
        return data_[size_t(r) * size_t(cols_) + size_t(c)];
    }
    const T &operator()(int r, int c) const
    {
        TENDER_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
        return data_[size_t(r) * size_t(cols_) + size_t(c)];
    }

    T *rowPtr(int r) { return data_.data() + size_t(r) * size_t(cols_); }
    const T *rowPtr(int r) const
    {
        return data_.data() + size_t(r) * size_t(cols_);
    }

    std::vector<T> &data() { return data_; }
    const std::vector<T> &data() const { return data_; }

    /** Grow or shrink to `rows` rows in place, preserving the leading
     *  content; the backing vector's capacity is reused, so refilling a
     *  recycled buffer (a KV cache chunk slot) does not reallocate. */
    void
    resizeRows(int rows)
    {
        TENDER_CHECK(rows >= 0 && cols_ > 0);
        rows_ = rows;
        data_.resize(size_t(rows) * size_t(cols_));
    }

    /** Rows [r0, r1) as a copied sub-matrix (row chunking helper). */
    MatrixT<T>
    rowSlice(int r0, int r1) const
    {
        TENDER_CHECK(r0 >= 0 && r0 <= r1 && r1 <= rows_);
        MatrixT<T> out(r1 - r0, cols_);
        for (int r = r0; r < r1; ++r)
            for (int c = 0; c < cols_; ++c)
                out(r - r0, c) = (*this)(r, c);
        return out;
    }

    /** Columns [c0, c1) as a copied sub-matrix. */
    MatrixT<T>
    colSlice(int c0, int c1) const
    {
        TENDER_CHECK(c0 >= 0 && c0 <= c1 && c1 <= cols_);
        MatrixT<T> out(rows_, c1 - c0);
        for (int r = 0; r < rows_; ++r)
            for (int c = c0; c < c1; ++c)
                out(r, c - c0) = (*this)(r, c);
        return out;
    }

    MatrixT<T>
    transposed() const
    {
        MatrixT<T> out(cols_, rows_);
        for (int r = 0; r < rows_; ++r)
            for (int c = 0; c < cols_; ++c)
                out(c, r) = (*this)(r, c);
        return out;
    }

    bool
    operator==(const MatrixT<T> &other) const
    {
        return rows_ == other.rows_ && cols_ == other.cols_ &&
            data_ == other.data_;
    }

  private:
    int rows_ = 0;
    int cols_ = 0;
    std::vector<T> data_;
};

using Matrix = MatrixT<float>;
using IntMatrix = MatrixT<int32_t>;

/** Fill with N(mean, stddev^2) samples. */
Matrix randomGaussian(int rows, int cols, Rng &rng, float mean = 0.f,
                      float stddev = 1.f);

/** Fill with U(lo, hi) samples. */
Matrix randomUniform(int rows, int cols, Rng &rng, float lo = -1.f,
                     float hi = 1.f);

/** Max |a - b| over all elements (shapes must match). */
float maxAbsDiff(const Matrix &a, const Matrix &b);

/** Frobenius norm. */
double frobeniusNorm(const Matrix &m);

} // namespace tender

#endif // TENDER_TENSOR_MATRIX_H
