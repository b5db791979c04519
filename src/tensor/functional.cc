#include "tensor/functional.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace tender {

namespace functional_detail {

void
softmaxRowsRange(const Matrix &m, Matrix &out, int r0, int r1)
{
    const float neg_inf = -std::numeric_limits<float>::infinity();
    const int n = m.cols();
    std::vector<double> e(size_t(n), 0.0); // each exp, kept to normalize
    for (int r = r0; r < r1; ++r) {
        const float *in = m.rowPtr(r);
        float *o = out.rowPtr(r);
        float row_max = neg_inf;
        for (int c = 0; c < n; ++c)
            row_max = std::max(row_max, in[c]);
        // Under a finite max a masked column's exp(-inf) is exactly +0.0:
        // it adds nothing to the sum and normalizes to 0. A row whose max
        // is infinite takes the exp of inf - inf and stays NaN.
        const bool skip_masked = std::isfinite(row_max);
        double denom = 0.0;
        for (int c = 0; c < n; ++c) {
            e[size_t(c)] = skip_masked && in[c] == neg_inf
                ? 0.0
                : std::exp(double(in[c]) - double(row_max));
            denom += e[size_t(c)];
        }
        for (int c = 0; c < n; ++c)
            o[c] = float(e[size_t(c)] / denom);
    }
}

void
layerNormRange(const Matrix &m, const Matrix &gain, const Matrix &bias,
               float eps, Matrix &out, int r0, int r1)
{
    for (int r = r0; r < r1; ++r) {
        double mean = 0.0;
        for (int c = 0; c < m.cols(); ++c)
            mean += m(r, c);
        mean /= double(m.cols());
        double var = 0.0;
        for (int c = 0; c < m.cols(); ++c) {
            double d = double(m(r, c)) - mean;
            var += d * d;
        }
        var /= double(m.cols());
        double inv = 1.0 / std::sqrt(var + double(eps));
        for (int c = 0; c < m.cols(); ++c)
            out(r, c) = float((double(m(r, c)) - mean) * inv *
                              double(gain(0, c)) + double(bias(0, c)));
    }
}

void
reluRange(Matrix &out, size_t i0, size_t i1)
{
    for (size_t i = i0; i < i1; ++i)
        out.data()[i] = std::max(out.data()[i], 0.f);
}

void
geluRange(Matrix &out, size_t i0, size_t i1)
{
    constexpr float kC = 0.7978845608f; // sqrt(2/pi)
    for (size_t i = i0; i < i1; ++i) {
        float x = out.data()[i];
        float inner = kC * (x + 0.044715f * x * x * x);
        out.data()[i] = 0.5f * x * (1.f + std::tanh(inner));
    }
}

void
scaleRange(Matrix &out, float s, size_t i0, size_t i1)
{
    for (size_t i = i0; i < i1; ++i)
        out.data()[i] *= s;
}

} // namespace functional_detail

Matrix
softmaxRows(const Matrix &m)
{
    Matrix out(m.rows(), m.cols());
    functional_detail::softmaxRowsRange(m, out, 0, m.rows());
    return out;
}

Matrix
layerNorm(const Matrix &m, const Matrix &gain, const Matrix &bias, float eps)
{
    TENDER_CHECK(gain.rows() == 1 && gain.cols() == m.cols());
    TENDER_CHECK(bias.rows() == 1 && bias.cols() == m.cols());
    Matrix out(m.rows(), m.cols());
    functional_detail::layerNormRange(m, gain, bias, eps, out, 0, m.rows());
    return out;
}

Matrix
relu(const Matrix &m)
{
    Matrix out = m;
    functional_detail::reluRange(out, 0, out.size());
    return out;
}

Matrix
gelu(const Matrix &m)
{
    Matrix out = m;
    functional_detail::geluRange(out, 0, out.size());
    return out;
}

Matrix
scale(const Matrix &m, float s)
{
    Matrix out = m;
    functional_detail::scaleRange(out, s, 0, out.size());
    return out;
}

Matrix
causalMask(const Matrix &scores)
{
    TENDER_CHECK(scores.rows() == scores.cols());
    return causalMaskFrom(scores, 0);
}

Matrix
causalMaskFrom(const Matrix &scores, int pos0)
{
    TENDER_CHECK(pos0 >= 0);
    Matrix out = scores;
    for (int r = 0; r < out.rows(); ++r)
        for (int c = pos0 + r + 1; c < out.cols(); ++c)
            out(r, c) = -std::numeric_limits<float>::infinity();
    return out;
}

} // namespace tender
