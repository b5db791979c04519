/**
 * @file
 * Tests for the tensor substrate: matrix containers, GEMM kernels against
 * a naive reference, and the Transformer functional ops.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "tensor/functional.h"
#include "tensor/gemm.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"

namespace tender {
namespace {

/** The golden fp32 arithmetic, spelled out: each output is the float of
 *  a double sum that starts at 0.0 and adds double(a) * double(b) in
 *  ascending k. */
Matrix
naiveGemm(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols(), 0.f);
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (int k = 0; k < a.cols(); ++k)
                acc += double(a(i, k)) * double(b(k, j));
            c(i, j) = float(acc);
        }
    return c;
}

/** The same arithmetic for C = A * B^T. */
Matrix
naiveGemmTransposedB(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.rows(), 0.f);
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < b.rows(); ++j) {
            double acc = 0.0;
            for (int k = 0; k < a.cols(); ++k)
                acc += double(a(i, k)) * double(b(j, k));
            c(i, j) = float(acc);
        }
    return c;
}

/** The softmax as computed before each exp was kept: the exps summed in
 *  one pass and recomputed in the next. */
Matrix
twoPassSoftmax(const Matrix &m)
{
    Matrix out(m.rows(), m.cols());
    for (int r = 0; r < m.rows(); ++r) {
        float row_max = -std::numeric_limits<float>::infinity();
        for (int c = 0; c < m.cols(); ++c)
            row_max = std::max(row_max, m(r, c));
        double denom = 0.0;
        for (int c = 0; c < m.cols(); ++c)
            denom += std::exp(double(m(r, c)) - double(row_max));
        for (int c = 0; c < m.cols(); ++c)
            out(r, c) = float(std::exp(double(m(r, c)) - double(row_max)) /
                              denom);
    }
    return out;
}

/** Make the first and last product of every sum of A * B huge and
 *  opposite (A's first column times 2^30, its last column the negative of
 *  that, B's last row a copy of its first), so that they cancel exactly
 *  and the float result depends on the order of the adds between them:
 *  a kernel that reorders a sum no longer matches the bits. `bt` is B
 *  stored transposed (n x k). */
void
cancelEnds(Matrix &a, Matrix &b, bool bt)
{
    const int k = a.cols();
    if (k < 2)
        return;
    for (int i = 0; i < a.rows(); ++i) {
        a(i, 0) *= 1073741824.f;
        a(i, k - 1) = -a(i, 0);
    }
    for (int j = 0; j < (bt ? b.rows() : b.cols()); ++j) {
        if (bt)
            b(j, k - 1) = b(j, 0);
        else
            b(k - 1, j) = b(0, j);
    }
}

::testing::AssertionResult
sameBits(const Matrix &expect, const Matrix &got)
{
    if (expect.rows() != got.rows() || expect.cols() != got.cols())
        return ::testing::AssertionFailure() << "shape differs";
    for (size_t i = 0; i < expect.size(); ++i)
        if (std::memcmp(&expect.data()[i], &got.data()[i], sizeof(float)))
            return ::testing::AssertionFailure()
                << "element " << i << ": " << expect.data()[i] << " vs "
                << got.data()[i];
    return ::testing::AssertionSuccess();
}

/** Every arm that computes the golden arithmetic: Serial, and Threaded at
 *  one and three workers. */
std::vector<std::unique_ptr<KernelContext>>
goldenArms()
{
    std::vector<std::unique_ptr<KernelContext>> arms;
    arms.push_back(std::make_unique<KernelContext>(Backend::Serial));
    arms.push_back(std::make_unique<KernelContext>(Backend::Threaded, 1));
    arms.push_back(std::make_unique<KernelContext>(Backend::Threaded, 3));
    return arms;
}

TEST(Matrix, ConstructionAndAccess)
{
    Matrix m(3, 4, 1.5f);
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 4);
    EXPECT_EQ(m.size(), 12u);
    EXPECT_FLOAT_EQ(m(2, 3), 1.5f);
    m(1, 2) = -2.f;
    EXPECT_FLOAT_EQ(m(1, 2), -2.f);
}

TEST(Matrix, DefaultIsEmpty)
{
    Matrix m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.rows(), 0);
}

TEST(Matrix, RowSlice)
{
    Matrix m(4, 2);
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 2; ++c)
            m(r, c) = float(r * 10 + c);
    Matrix s = m.rowSlice(1, 3);
    EXPECT_EQ(s.rows(), 2);
    EXPECT_FLOAT_EQ(s(0, 0), 10.f);
    EXPECT_FLOAT_EQ(s(1, 1), 21.f);
}

TEST(Matrix, ColSlice)
{
    Matrix m(2, 4);
    for (int r = 0; r < 2; ++r)
        for (int c = 0; c < 4; ++c)
            m(r, c) = float(r * 10 + c);
    Matrix s = m.colSlice(2, 4);
    EXPECT_EQ(s.cols(), 2);
    EXPECT_FLOAT_EQ(s(0, 0), 2.f);
    EXPECT_FLOAT_EQ(s(1, 1), 13.f);
}

TEST(Matrix, Transpose)
{
    Rng rng(1);
    Matrix m = randomGaussian(5, 3, rng);
    Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3);
    EXPECT_EQ(t.cols(), 5);
    for (int r = 0; r < 5; ++r)
        for (int c = 0; c < 3; ++c)
            EXPECT_FLOAT_EQ(t(c, r), m(r, c));
}

TEST(Matrix, MaxAbsDiffAndNorm)
{
    Matrix a(2, 2, 1.f), b(2, 2, 1.f);
    b(1, 1) = -2.f;
    EXPECT_FLOAT_EQ(maxAbsDiff(a, b), 3.f);
    EXPECT_NEAR(frobeniusNorm(a), 2.0, 1e-6);
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmShapes, BlockedMatchesNaive)
{
    auto [m, k, n] = GetParam();
    Rng rng(uint64_t(m * 1000 + k * 10 + n));
    for (const bool cancel : {false, true}) {
        Matrix a = randomGaussian(m, k, rng);
        Matrix b = randomGaussian(k, n, rng);
        if (cancel)
            cancelEnds(a, b, false);
        const Matrix expect = naiveGemm(a, b);
        for (const auto &kc : goldenArms())
            EXPECT_TRUE(sameBits(expect, kc->gemm(a, b)))
                << backendName(kc->backend()) << " x" << kc->workers()
                << " cancel " << cancel;
    }
}

TEST_P(GemmShapes, TransposedBMatchesExplicitTranspose)
{
    auto [m, k, n] = GetParam();
    Rng rng(uint64_t(m + k + n));
    for (const bool cancel : {false, true}) {
        Matrix a = randomGaussian(m, k, rng);
        Matrix b = randomGaussian(n, k, rng); // will be used as B^T
        if (cancel)
            cancelEnds(a, b, true);
        const Matrix expect = naiveGemmTransposedB(a, b);
        for (const auto &kc : goldenArms())
            EXPECT_TRUE(sameBits(expect, kc->gemmTransposedB(a, b)))
                << backendName(kc->backend()) << " x" << kc->workers()
                << " cancel " << cancel;
    }
}

// The kernels run 6 x 32 (gemm) and 4 x 8 (gemmTransposedB) register
// tiles, gemm in 48 x 128 output blocks over 256-deep reduction blocks:
// these shapes leave every row remainder (m = 5, 7, 13, ...) and column
// remainder (n = 1, 7, 31, 65, ...), a one-deep reduction, reductions
// that span several blocks (K = 300, 520, 600, 1024) and several row and
// column blocks.
INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 130, 67),
                      std::make_tuple(128, 33, 128),
                      std::make_tuple(7, 256, 9), std::make_tuple(5, 1, 1),
                      std::make_tuple(7, 1, 7), std::make_tuple(13, 1, 31),
                      std::make_tuple(5, 19, 65), std::make_tuple(7, 33, 31),
                      std::make_tuple(13, 64, 7),
                      std::make_tuple(12, 300, 40),
                      std::make_tuple(13, 1024, 65),
                      std::make_tuple(100, 520, 33),
                      std::make_tuple(50, 600, 161)));

TEST(Gemm, IntGemmExact)
{
    IntMatrix a(2, 3), b(3, 2);
    int v = 1;
    for (auto &x : a.data())
        x = v++;
    for (auto &x : b.data())
        x = v++;
    auto c = gemmInt(a, b);
    // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
    EXPECT_EQ(c(0, 0), 1 * 7 + 2 * 9 + 3 * 11);
    EXPECT_EQ(c(0, 1), 1 * 8 + 2 * 10 + 3 * 12);
    EXPECT_EQ(c(1, 0), 4 * 7 + 5 * 9 + 6 * 11);
    EXPECT_EQ(c(1, 1), 4 * 8 + 5 * 10 + 6 * 12);
}

TEST(Gemm, IntGemmLargeMagnitudes)
{
    IntMatrix a(1, 2), b(2, 1);
    a(0, 0) = 127;
    a(0, 1) = -127;
    b(0, 0) = 127;
    b(1, 0) = 127;
    EXPECT_EQ(gemmInt(a, b)(0, 0), 0);
}

TEST(Gemm, Axpby)
{
    Matrix a(1, 2), b(1, 2);
    a(0, 0) = 1.f;
    a(0, 1) = 2.f;
    b(0, 0) = 10.f;
    b(0, 1) = 20.f;
    Matrix c = axpby(2.f, a, 0.5f, b);
    EXPECT_FLOAT_EQ(c(0, 0), 7.f);
    EXPECT_FLOAT_EQ(c(0, 1), 14.f);
}

TEST(Gemm, AddRowVector)
{
    Matrix m(2, 2, 1.f);
    Matrix row(1, 2);
    row(0, 0) = 5.f;
    row(0, 1) = -1.f;
    Matrix out = addRowVector(m, row);
    EXPECT_FLOAT_EQ(out(0, 0), 6.f);
    EXPECT_FLOAT_EQ(out(1, 1), 0.f);
}

TEST(Functional, SoftmaxRowsSumToOne)
{
    Rng rng(2);
    Matrix m = randomGaussian(8, 16, rng, 0.f, 5.f);
    Matrix p = softmaxRows(m);
    for (int r = 0; r < p.rows(); ++r) {
        double sum = 0.0;
        for (int c = 0; c < p.cols(); ++c) {
            EXPECT_GE(p(r, c), 0.f);
            sum += p(r, c);
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Functional, SoftmaxRowsMatchesTwoPassReference)
{
    const float inf = std::numeric_limits<float>::infinity();
    Rng rng(5);
    Matrix m = randomGaussian(7, 37, rng, 0.f, 4.f);
    // Causal -inf tails of every length, as a prefill block's scores.
    m = causalMaskFrom(m, 30);
    for (int c = 0; c < m.cols(); ++c)
        m(4, c) = -inf; // an all -inf row
    m(5, 3) = inf;      // a +inf entry
    m(6, 0) = -inf;     // a masked head before finite entries
    const Matrix expect = twoPassSoftmax(m);
    for (int c = 0; c < m.cols(); ++c) {
        EXPECT_TRUE(std::isnan(expect(4, c)));
        EXPECT_TRUE(std::isnan(expect(5, c)));
    }
    for (const auto &kc : goldenArms())
        EXPECT_TRUE(sameBits(expect, kc->softmaxRows(m)))
            << backendName(kc->backend()) << " x" << kc->workers();
}

TEST(Functional, SoftmaxStableForHugeValues)
{
    Matrix m(1, 3);
    m(0, 0) = 1e4f;
    m(0, 1) = 1e4f;
    m(0, 2) = -1e4f;
    Matrix p = softmaxRows(m);
    EXPECT_NEAR(p(0, 0), 0.5f, 1e-5);
    EXPECT_NEAR(p(0, 1), 0.5f, 1e-5);
    EXPECT_NEAR(p(0, 2), 0.f, 1e-6);
}

TEST(Functional, SoftmaxOrderPreserving)
{
    Matrix m(1, 3);
    m(0, 0) = 1.f;
    m(0, 1) = 2.f;
    m(0, 2) = 3.f;
    Matrix p = softmaxRows(m);
    EXPECT_LT(p(0, 0), p(0, 1));
    EXPECT_LT(p(0, 1), p(0, 2));
}

TEST(Functional, LayerNormStats)
{
    Rng rng(3);
    Matrix m = randomGaussian(4, 64, rng, 3.f, 2.f);
    Matrix gain(1, 64, 1.f), bias(1, 64, 0.f);
    Matrix out = layerNorm(m, gain, bias);
    for (int r = 0; r < out.rows(); ++r) {
        double mean = 0.0, var = 0.0;
        for (int c = 0; c < out.cols(); ++c)
            mean += out(r, c);
        mean /= out.cols();
        for (int c = 0; c < out.cols(); ++c)
            var += (out(r, c) - mean) * (out(r, c) - mean);
        var /= out.cols();
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(Functional, LayerNormGainBias)
{
    Matrix m(1, 2);
    m(0, 0) = -1.f;
    m(0, 1) = 1.f;
    Matrix gain(1, 2), bias(1, 2);
    gain(0, 0) = 2.f;
    gain(0, 1) = 3.f;
    bias(0, 0) = 10.f;
    bias(0, 1) = 20.f;
    Matrix out = layerNorm(m, gain, bias);
    // Normalized values are -1 and +1 (population variance).
    EXPECT_NEAR(out(0, 0), 10.f - 2.f, 1e-2);
    EXPECT_NEAR(out(0, 1), 20.f + 3.f, 1e-2);
}

TEST(Functional, ReluClampsNegatives)
{
    Matrix m(1, 3);
    m(0, 0) = -1.f;
    m(0, 1) = 0.f;
    m(0, 2) = 2.f;
    Matrix out = relu(m);
    EXPECT_FLOAT_EQ(out(0, 0), 0.f);
    EXPECT_FLOAT_EQ(out(0, 1), 0.f);
    EXPECT_FLOAT_EQ(out(0, 2), 2.f);
}

TEST(Functional, GeluKnownValues)
{
    Matrix m(1, 3);
    m(0, 0) = 0.f;
    m(0, 1) = 10.f;
    m(0, 2) = -10.f;
    Matrix out = gelu(m);
    EXPECT_FLOAT_EQ(out(0, 0), 0.f);
    EXPECT_NEAR(out(0, 1), 10.f, 1e-3);
    EXPECT_NEAR(out(0, 2), 0.f, 1e-3);
}

TEST(Functional, CausalMaskZerosUpperTriangle)
{
    Matrix scores(3, 3, 1.f);
    Matrix p = softmaxRows(causalMask(scores));
    EXPECT_NEAR(p(0, 0), 1.f, 1e-6);
    EXPECT_NEAR(p(0, 1), 0.f, 1e-6);
    EXPECT_NEAR(p(1, 0), 0.5f, 1e-6);
    EXPECT_NEAR(p(2, 2), 1.f / 3.f, 1e-6);
}

TEST(Functional, ScaleMultiplies)
{
    Matrix m(1, 2, 3.f);
    Matrix out = scale(m, -2.f);
    EXPECT_FLOAT_EQ(out(0, 0), -6.f);
}

} // namespace
} // namespace tender
