/**
 * @file
 * Tests for the Multi-Scale Systolic Array functional model: bit-exact
 * equivalence with the software shift-accumulate GEMM, cycle-count
 * validation against the analytic formula, rescale-bubble accounting,
 * and overflow checking.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "core/msa_functional.h"
#include "core/tender_gemm.h"
#include "util/rng.h"

namespace tender {
namespace {

/** Random codes in the symmetric b-bit range. */
IntMatrix
randomCodes(int rows, int cols, int bits, Rng &rng)
{
    IntMatrix m(rows, cols);
    const int32_t k = (1 << (bits - 1)) - 1;
    for (auto &v : m.data())
        v = int32_t(rng.randint(-k, k));
    return m;
}

/** Reference: software shift-accumulate over the same group stream. */
MatrixT<int64_t>
referenceAccumulate(const IntMatrix &a, const IntMatrix &b,
                    const std::vector<int> &group_sizes, int alpha)
{
    MatrixT<int64_t> acc(a.rows(), b.cols(), 0);
    int chan = 0;
    for (size_t g = 0; g < group_sizes.size(); ++g) {
        if (g > 0)
            for (auto &v : acc.data())
                v *= alpha;
        for (int i = 0; i < group_sizes[g]; ++i, ++chan)
            for (int r = 0; r < a.rows(); ++r)
                for (int c = 0; c < b.cols(); ++c)
                    acc(r, c) += int64_t(a(r, chan)) * int64_t(b(chan, c));
    }
    return acc;
}

class MsaSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(MsaSweep, BitExactAgainstReference)
{
    auto [m, n, k, groups] = GetParam();
    Rng rng(uint64_t(m * 1000 + n * 100 + k * 10 + groups));
    IntMatrix a = randomCodes(m, k, 4, rng);
    IntMatrix b = randomCodes(k, n, 4, rng);
    // Split k into `groups` parts (possibly empty tails).
    std::vector<int> sizes(size_t(groups), k / groups);
    sizes[0] += k % groups;
    MsaConfig cfg;
    cfg.rows = 64;
    cfg.cols = 64;
    MsaTileResult res = msaComputeTile(a, b, sizes, cfg);
    MatrixT<int64_t> ref = referenceAccumulate(a, b, sizes, cfg.alpha);
    EXPECT_TRUE(res.acc == ref)
        << "m=" << m << " n=" << n << " k=" << k << " g=" << groups;
}

TEST_P(MsaSweep, CycleCountMatchesFormula)
{
    auto [m, n, k, groups] = GetParam();
    Rng rng(uint64_t(m + n + k + groups));
    IntMatrix a = randomCodes(m, k, 4, rng);
    IntMatrix b = randomCodes(k, n, 4, rng);
    std::vector<int> sizes(size_t(groups), k / groups);
    sizes[0] += k % groups;
    MsaConfig cfg;
    MsaTileResult res = msaComputeTile(a, b, sizes, cfg);
    EXPECT_EQ(res.computeCycles, msaTileCycles(m, n, k, groups));
    EXPECT_EQ(res.bubbles, groups - 1);
    EXPECT_EQ(res.drainCycles, m);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MsaSweep,
    ::testing::Combine(::testing::Values(1, 7, 16), // m
                       ::testing::Values(1, 9, 16), // n
                       ::testing::Values(8, 33),    // k
                       ::testing::Values(1, 3, 8)));// groups

TEST(Msa, MatchesChunkAccumulateImplicit)
{
    // End-to-end: take a real quantized chunk and stream it (channels
    // permuted into group order) through the MSA; the accumulators must
    // equal the software pipeline's integer output exactly.
    Rng rng(42);
    Matrix x = randomGaussian(16, 48, rng, 0.f, 0.5f);
    for (int r = 0; r < 16; ++r) {
        x(r, 5) *= 60.f;
        x(r, 17) *= 25.f;
    }
    Matrix w = randomGaussian(48, 12, rng, 0.f, 0.05f);
    TenderConfig cfg;
    cfg.bits = 4;
    cfg.numGroups = 4;
    cfg.rowChunk = 0;
    ChunkMeta meta = decomposeChunk(x, cfg);
    QuantizedChunk qc = quantizeChunk(x, meta, cfg.bits);
    QuantizedWeight qw = quantizeWeight(w, cfg.bits);
    MatrixT<int64_t> sw = chunkAccumulateImplicit(qc, qw, cfg);

    // Permute channels into the Index Buffer order for the MSA stream.
    IntMatrix a_perm(16, 48);
    IntMatrix b_perm(48, 12);
    for (int idx = 0; idx < 48; ++idx) {
        const int c = meta.order[size_t(idx)];
        for (int r = 0; r < 16; ++r)
            a_perm(r, idx) = qc.codes(r, c);
        for (int j = 0; j < 12; ++j)
            b_perm(idx, j) = qw.codes(j, c); // codes are N x K
    }
    std::vector<int> sizes;
    for (int g = 0; g < meta.groups(); ++g)
        sizes.push_back(meta.groupSize(g));

    MsaConfig mcfg;
    MsaTileResult res = msaComputeTile(a_perm, b_perm, sizes, mcfg);
    EXPECT_TRUE(res.acc == sw);
}

TEST(Msa, EmptyGroupsStillRescale)
{
    // An empty group must still shift the accumulator so the final scale
    // is the terminal group's scale.
    IntMatrix a(1, 1, 3);
    IntMatrix b(1, 1, 2);
    std::vector<int> sizes = {1, 0, 0};
    MsaConfig cfg;
    MsaTileResult res = msaComputeTile(a, b, sizes, cfg);
    EXPECT_EQ(res.acc(0, 0), 3 * 2 * 4); // shifted twice
    EXPECT_EQ(res.bubbles, 2);
}

TEST(Msa, SingleGroupNoBubbles)
{
    Rng rng(1);
    IntMatrix a = randomCodes(4, 8, 4, rng);
    IntMatrix b = randomCodes(8, 4, 4, rng);
    MsaConfig cfg;
    MsaTileResult res = msaComputeTile(a, b, {8}, cfg);
    EXPECT_EQ(res.bubbles, 0);
    EXPECT_EQ(res.computeCycles, msaTileCycles(4, 4, 8, 1));
}

TEST(Msa, AlphaThreeRescale)
{
    IntMatrix a(1, 2);
    IntMatrix b(2, 1);
    a(0, 0) = 5;
    a(0, 1) = 1;
    b(0, 0) = 1;
    b(1, 0) = 1;
    MsaConfig cfg;
    cfg.alpha = 3;
    MsaTileResult res = msaComputeTile(a, b, {1, 1}, cfg);
    EXPECT_EQ(res.acc(0, 0), 5 * 3 + 1);
}

TEST(Msa, ZeroLengthReduction)
{
    IntMatrix a(2, 0);
    IntMatrix b(0, 2);
    MsaConfig cfg;
    MsaTileResult res = msaComputeTile(a, b, {0}, cfg);
    for (int64_t v : res.acc.data())
        EXPECT_EQ(v, 0);
}

TEST(Msa, KLargerThanArrayStreamsFine)
{
    // The reduction axis is unconstrained by the array size — the whole
    // point of retaining the reduction axis (Section II-D).
    Rng rng(2);
    IntMatrix a = randomCodes(4, 500, 4, rng);
    IntMatrix b = randomCodes(500, 4, 4, rng);
    std::vector<int> sizes = {10, 90, 400};
    MsaConfig cfg;
    MsaTileResult res = msaComputeTile(a, b, sizes, cfg);
    MatrixT<int64_t> ref = referenceAccumulate(a, b, sizes, 2);
    EXPECT_TRUE(res.acc == ref);
}

TEST(Msa, OverflowCheckFires)
{
    // With checkOverflow on, saturating the 32-bit accumulator aborts; with
    // it off the model keeps the (wider) value so tests can inspect it.
    IntMatrix a(1, 1, 7);
    IntMatrix b(1, 1, 7);
    std::vector<int> sizes(30, 0);
    sizes[0] = 1; // one product then 29 doublings: 49 * 2^29 > INT32_MAX
    MsaConfig cfg;
    cfg.checkOverflow = false;
    MsaTileResult res = msaComputeTile(a, b, sizes, cfg);
    EXPECT_EQ(res.acc(0, 0), int64_t(49) << 29);
    MsaConfig strict;
    strict.checkOverflow = true;
    EXPECT_DEATH(msaComputeTile(a, b, sizes, strict), "overflow");
}

TEST(Msa, RejectsOversizedTile)
{
    IntMatrix a(65, 1, 0);
    IntMatrix b(1, 1, 0);
    MsaConfig cfg; // 64x64
    EXPECT_EXIT(msaComputeTile(a, b, {1}, cfg),
                ::testing::ExitedWithCode(1), "exceeds");
}

TEST(MsaTileCycles, Formula)
{
    EXPECT_EQ(msaTileCycles(1, 1, 1, 1), 1);
    EXPECT_EQ(msaTileCycles(64, 64, 4096, 8),
              4096 + 7 + 63 + 63);
    EXPECT_EQ(msaTileCycles(2, 3, 10, 1), 10 + 1 + 2);
}

} // namespace
} // namespace tender
