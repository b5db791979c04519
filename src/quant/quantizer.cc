#include "quant/quantizer.h"

#include <algorithm>
#include <cmath>

namespace tender {

float
scaleFor(float abs_max, int bits)
{
    TENDER_CHECK(bits >= 2 && bits <= 16);
    if (abs_max <= 0.f) {
        // Degenerate all-zero group: any positive scale round-trips zeros.
        return 1.f;
    }
    return abs_max / float(maxCode(bits));
}

float
tensorAbsMax(const Matrix &m)
{
    float worst = 0.f;
    for (float x : m.data())
        worst = std::max(worst, std::abs(x));
    return worst;
}

float
rowAbsMax(const Matrix &m, int r)
{
    float worst = 0.f;
    for (int c = 0; c < m.cols(); ++c)
        worst = std::max(worst, std::abs(m(r, c)));
    return worst;
}

float
colAbsMax(const Matrix &m, int c)
{
    float worst = 0.f;
    for (int r = 0; r < m.rows(); ++r)
        worst = std::max(worst, std::abs(m(r, c)));
    return worst;
}

Matrix
fakeQuantPerTensor(const Matrix &m, int bits)
{
    const float s = scaleFor(tensorAbsMax(m), bits);
    Matrix out(m.rows(), m.cols());
    for (size_t i = 0; i < m.size(); ++i)
        out.data()[i] = dequantizeValue(quantizeValue(m.data()[i], s, bits),
                                        s);
    return out;
}

} // namespace tender
