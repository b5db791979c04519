/**
 * @file
 * Tests for the primitive uniform symmetric quantizer: scale selection,
 * rounding, clamping, and the classic error bound |x - dq(q(x))| <= s/2.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "quant/quantizer.h"
#include "util/rng.h"

namespace tender {
namespace {

TEST(MaxCode, KnownWidths)
{
    EXPECT_EQ(maxCode(8), 127);
    EXPECT_EQ(maxCode(4), 7);
    EXPECT_EQ(maxCode(2), 1);
    EXPECT_EQ(maxCode(16), 32767);
}

TEST(ScaleFor, MapsAbsMaxOntoTopCode)
{
    const float s = scaleFor(12.7f, 8);
    EXPECT_FLOAT_EQ(s, 0.1f);
    EXPECT_EQ(quantizeValue(12.7f, s, 8), 127);
    EXPECT_EQ(quantizeValue(-12.7f, s, 8), -127);
}

TEST(ScaleFor, ZeroAbsMaxIsSafe)
{
    const float s = scaleFor(0.f, 8);
    EXPECT_GT(s, 0.f);
    EXPECT_EQ(quantizeValue(0.f, s, 8), 0);
}

TEST(QuantizeValue, RoundsToNearest)
{
    EXPECT_EQ(quantizeValue(1.4f, 1.f, 8), 1);
    EXPECT_EQ(quantizeValue(1.6f, 1.f, 8), 2);
    EXPECT_EQ(quantizeValue(-1.4f, 1.f, 8), -1);
    EXPECT_EQ(quantizeValue(-1.6f, 1.f, 8), -2);
}

TEST(QuantizeValue, ClampsOutOfRange)
{
    EXPECT_EQ(quantizeValue(1000.f, 1.f, 8), 127);
    EXPECT_EQ(quantizeValue(-1000.f, 1.f, 8), -127);
    EXPECT_EQ(quantizeValue(1000.f, 1.f, 4), 7);
    EXPECT_EQ(quantizeValue(-1000.f, 1.f, 4), -7);
    // Quotients no int32 holds clamp before the conversion: infinities
    // keep their sign, NaN takes the negative end, and +-3e9 saturate.
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(quantizeValue(inf, 1.f, 8), 127);
    EXPECT_EQ(quantizeValue(-inf, 1.f, 8), -127);
    EXPECT_EQ(quantizeValue(std::nanf(""), 1.f, 8), -127);
    EXPECT_EQ(quantizeValue(3e9f, 1.f, 8), 127);
    EXPECT_EQ(quantizeValue(-3e9f, 1.f, 8), -127);
    EXPECT_EQ(quantizeValue(1.f, 0.f, 8), 127);
}

TEST(QuantizeValue, SymmetricRange)
{
    // Symmetric quantization never uses the -2^(b-1) code.
    for (int bits : {2, 3, 4, 8}) {
        const int32_t k = maxCode(bits);
        EXPECT_EQ(quantizeValue(-1e9f, 1.f, bits), -k);
    }
}

TEST(Dequantize, Inverse)
{
    EXPECT_FLOAT_EQ(dequantizeValue(10, 0.5f), 5.f);
    EXPECT_FLOAT_EQ(dequantizeValue(-3, 2.f), -6.f);
}

TEST(AbsMaxHelpers, RowColTensor)
{
    Matrix m(2, 3, 0.f);
    m(0, 1) = -5.f;
    m(1, 2) = 3.f;
    EXPECT_FLOAT_EQ(tensorAbsMax(m), 5.f);
    EXPECT_FLOAT_EQ(rowAbsMax(m, 0), 5.f);
    EXPECT_FLOAT_EQ(rowAbsMax(m, 1), 3.f);
    EXPECT_FLOAT_EQ(colAbsMax(m, 1), 5.f);
    EXPECT_FLOAT_EQ(colAbsMax(m, 0), 0.f);
}

class RoundTripBits : public ::testing::TestWithParam<int>
{
};

TEST_P(RoundTripBits, ErrorBoundedByHalfScale)
{
    const int bits = GetParam();
    Rng rng{uint64_t(bits)};
    Matrix m = randomGaussian(32, 32, rng, 0.f, 2.f);
    const float s = scaleFor(tensorAbsMax(m), bits);
    Matrix fq = fakeQuantPerTensor(m, bits);
    for (size_t i = 0; i < m.size(); ++i) {
        // Round-to-nearest: error at most s/2 (plus float eps).
        EXPECT_LE(std::abs(m.data()[i] - fq.data()[i]),
                  0.5f * s * 1.0001f)
            << "bits=" << bits << " i=" << i;
    }
}

TEST_P(RoundTripBits, GridValuesRoundTripExactly)
{
    const int bits = GetParam();
    const int32_t k = maxCode(bits);
    // A tensor whose values already sit on the quantization grid must
    // round-trip exactly.
    Matrix m(1, 2 * k + 1);
    for (int32_t q = -k; q <= k; ++q)
        m(0, q + k) = float(q) * 0.25f;
    Matrix fq = fakeQuantPerTensor(m, bits);
    for (size_t i = 0; i < m.size(); ++i)
        EXPECT_FLOAT_EQ(m.data()[i], fq.data()[i]);
}

TEST_P(RoundTripBits, FakeQuantIdempotent)
{
    const int bits = GetParam();
    Rng rng(uint64_t(bits) + 99);
    Matrix m = randomGaussian(16, 16, rng);
    Matrix once = fakeQuantPerTensor(m, bits);
    Matrix twice = fakeQuantPerTensor(once, bits);
    EXPECT_LE(maxAbsDiff(once, twice), 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Widths, RoundTripBits,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8));

TEST(FakeQuant, MoreBitsNeverWorse)
{
    Rng rng(11);
    Matrix m = randomGaussian(64, 64, rng, 0.f, 3.f);
    double prev_err = 1e30;
    for (int bits : {2, 3, 4, 5, 6, 7, 8}) {
        Matrix fq = fakeQuantPerTensor(m, bits);
        double err = 0.0;
        for (size_t i = 0; i < m.size(); ++i) {
            double d = double(m.data()[i]) - double(fq.data()[i]);
            err += d * d;
        }
        EXPECT_LE(err, prev_err * 1.0001) << "bits=" << bits;
        prev_err = err;
    }
}

} // namespace
} // namespace tender
