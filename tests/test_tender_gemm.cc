/**
 * @file
 * Tests for the Tender GEMM pipelines: implicit/explicit equivalence
 * (Eq. 1 == Eq. 2), accuracy ordering against uniform granularities, bias
 * correction, accumulator-overflow accounting, the calibrated path, the
 * prepared (quantize-once) weight path and the segmented product.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/tender_gemm.h"
#include "core/tender_scheme.h"
#include "quant/granularity.h"
#include "quant/metrics.h"
#include "tensor/functional.h"
#include "util/rng.h"

namespace tender {
namespace {

Matrix
outlierActivation(int rows, int cols, Rng &rng, float gain = 50.f,
                  int stride = 13)
{
    Matrix m = randomGaussian(rows, cols, rng, 0.f, 0.5f);
    for (int c = 0; c < cols; c += stride)
        for (int r = 0; r < rows; ++r)
            m(r, c) *= gain;
    return m;
}

class TenderShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(TenderShapes, ImplicitEqualsExplicit)
{
    auto [bits, groups, chunk] = GetParam();
    Rng rng(uint64_t(bits * 100 + groups * 10 + chunk));
    Matrix x = outlierActivation(40, 48, rng);
    Matrix w = randomGaussian(48, 24, rng, 0.f, 0.05f);
    TenderConfig cfg;
    cfg.bits = bits;
    cfg.numGroups = groups;
    cfg.rowChunk = chunk;
    Matrix y_imp = tenderMatmul(x, w, cfg);
    Matrix y_exp = tenderMatmulExplicit(x, w, cfg);
    // Mathematically identical; FP accumulation order differs slightly.
    EXPECT_LE(nmse(y_exp, y_imp), 1e-8)
        << "bits=" << bits << " groups=" << groups << " chunk=" << chunk;
}

INSTANTIATE_TEST_SUITE_P(
    Config, TenderShapes,
    ::testing::Combine(::testing::Values(4, 8),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(0, 16, 64)));

TEST(TenderGemm, ExplicitBlockedAccumulateBitParity)
{
    // The explicit kernel walks the weight one 128-column slice at a time
    // and keeps the per-element FP sequence (one add per group, bias row
    // last), so its threaded outputs must be bit-identical — not merely
    // close — to the serial ones for any worker count.
    Rng rng(30);
    // 80 rows x 200 cols spans several chunks and two column slices.
    Matrix x = outlierActivation(80, 64, rng);
    Matrix w = randomGaussian(64, 200, rng, 0.f, 0.05f);
    KernelContext serial(Backend::Serial);
    for (int bits : {4, 8}) {
        for (int chunk : {0, 32}) {
            TenderConfig cfg;
            cfg.bits = bits;
            cfg.rowChunk = chunk;
            const Matrix y_s = tenderMatmulExplicit(x, w, cfg, &serial);
            for (int workers : {1, 3}) {
                KernelContext threaded(Backend::Threaded, workers);
                const Matrix y_t =
                    tenderMatmulExplicit(x, w, cfg, &threaded);
                EXPECT_TRUE(y_s == y_t)
                    << "bits=" << bits << " chunk=" << chunk
                    << " workers=" << workers << " maxAbsDiff="
                    << maxAbsDiff(y_s, y_t);
            }
            // Still mathematically the implicit pipeline (Eq. 1 == Eq. 2).
            const Matrix y_imp = tenderMatmul(x, w, cfg, nullptr, &serial);
            EXPECT_LE(nmse(y_imp, y_s), 1e-8);
        }
    }
}

TEST(TenderGemm, MatchesExactForGridFriendlyData)
{
    // Values exactly representable at the group scales: zero error.
    Matrix x(4, 4, 0.f);
    x(0, 0) = 127.f;
    x(1, 1) = 64.f;
    x(2, 2) = -127.f;
    x(3, 3) = 32.f;
    Matrix w(4, 2);
    for (int r = 0; r < 4; ++r) {
        w(r, 0) = 1.f;
        w(r, 1) = -1.f;
    }
    TenderConfig cfg;
    cfg.bits = 8;
    cfg.numGroups = 1;
    cfg.biasSubtract = false;
    Matrix y = tenderMatmul(x, w, cfg);
    Matrix ref = gemm(x, w);
    EXPECT_LE(maxAbsDiff(y, ref), 1e-3f);
}

TEST(TenderGemm, BeatsPerTensorOnOutliers)
{
    // Channel-equalized damage: Tender isolates the outlier channels, so
    // normal channels keep their resolution; per-tensor crushes them.
    Rng rng(1);
    Matrix x = outlierActivation(64, 64, rng, 80.f);
    Matrix w = randomGaussian(64, 32, rng, 0.f, 0.05f);
    TenderConfig cfg;
    cfg.bits = 8;
    const double d_tender = TenderScheme(cfg).gemmDamage(x, w);
    const double d_tensor =
        UniformScheme(8, Granularity::PerTensor).gemmDamage(x, w);
    EXPECT_LT(d_tender, d_tensor / 10.0);
}

TEST(TenderGemm, ApproachesPerColumnAccuracy)
{
    // Section V-B/Fig. 12: Tender's error is comparable to impracticable
    // per-column quantization.
    Rng rng(2);
    Matrix x = outlierActivation(64, 64, rng, 40.f);
    Matrix w = randomGaussian(64, 32, rng, 0.f, 0.05f);
    Matrix ref = gemm(x, w);
    TenderConfig cfg;
    cfg.bits = 8;
    cfg.numGroups = 8;
    const double e_tender = nmse(ref, tenderMatmul(x, w, cfg));
    const double e_col =
        nmse(ref, UniformScheme(8, Granularity::PerColumn).matmul(x, w));
    EXPECT_LT(e_tender, e_col * 10.0);
}

TEST(TenderGemm, MoreGroupsNeverHurtMuch)
{
    // Fig. 9 behaviour: channel-equalized damage drops (fast, then flat)
    // as the number of groups grows.
    Rng rng(3);
    Matrix x = outlierActivation(48, 64, rng, 60.f);
    Matrix w = randomGaussian(64, 24, rng, 0.f, 0.05f);
    TenderConfig cfg;
    cfg.bits = 4;
    auto damage = [&](int groups) {
        cfg.numGroups = groups;
        return TenderScheme(cfg).gemmDamage(x, w);
    };
    double prev = 1e30;
    for (int groups : {1, 2, 4, 8}) {
        const double d = damage(groups);
        EXPECT_LE(d, prev * 1.5) << "groups=" << groups;
        prev = d;
    }
    EXPECT_LT(damage(8), damage(1) / 5.0);
}

TEST(TenderGemm, BiasCorrectionExactForShiftedChannels)
{
    // Constant-offset channels quantize exactly after bias subtraction.
    Matrix x(8, 3, 0.f);
    for (int r = 0; r < 8; ++r) {
        x(r, 0) = 100.f;          // constant channel
        x(r, 1) = float(r) - 3.5f;
        x(r, 2) = -40.f;          // another constant channel
    }
    Matrix w(3, 2);
    int v = 1;
    for (auto &e : w.data())
        e = float(v++) * 0.1f;
    TenderConfig cfg;
    cfg.bits = 8;
    Matrix y = tenderMatmul(x, w, cfg);
    Matrix ref = gemm(x, w);
    EXPECT_LE(nmse(ref, y), 1e-6);
}

TEST(TenderGemm, BiasSubtractImprovesAsymmetricChannels)
{
    Rng rng(4);
    Matrix x = randomGaussian(32, 32, rng, 0.f, 0.2f);
    for (int r = 0; r < 32; ++r)
        for (int c = 0; c < 8; ++c)
            x(r, c) += 5.f; // strongly asymmetric channels
    Matrix w = randomGaussian(32, 16, rng, 0.f, 0.05f);
    Matrix ref = gemm(x, w);
    TenderConfig with_bias, no_bias;
    with_bias.bits = no_bias.bits = 4;
    no_bias.biasSubtract = false;
    const double e_with = nmse(ref, tenderMatmul(x, w, with_bias));
    const double e_without = nmse(ref, tenderMatmul(x, w, no_bias));
    EXPECT_LT(e_with, e_without);
}

TEST(TenderGemm, StatsCountMacsAndChunks)
{
    Rng rng(5);
    Matrix x = randomGaussian(64, 32, rng);
    Matrix w = randomGaussian(32, 16, rng);
    TenderConfig cfg;
    cfg.rowChunk = 16;
    TenderGemmStats stats;
    tenderMatmul(x, w, cfg, &stats);
    EXPECT_EQ(stats.chunks, 4);
    EXPECT_EQ(stats.macs, int64_t(64) * 32 * 16);
    EXPECT_EQ(stats.rescales,
              int64_t(64) * 16 * (cfg.numGroups - 1));
    EXPECT_FALSE(stats.overflow32);
    EXPECT_GT(stats.peakAbsAcc, 0);
}

TEST(TenderGemm, NoOverflowForRealisticShapes)
{
    // The Section III-B claim: the 32-bit accumulator never clips for
    // transformer-scale reductions, because high-magnitude groups hold
    // few channels.
    Rng rng(6);
    Matrix x = outlierActivation(16, 1024, rng, 100.f, 97);
    Matrix w = randomGaussian(1024, 8, rng, 0.f, 0.05f);
    TenderConfig cfg;
    cfg.bits = 8;
    cfg.numGroups = 8;
    cfg.checkOverflow = true; // panics on overflow
    TenderGemmStats stats;
    tenderMatmul(x, w, cfg, &stats);
    EXPECT_FALSE(stats.overflow32);
    EXPECT_LE(stats.peakAbsAcc, int64_t(INT32_MAX));
}

TEST(TenderGemm, CalibratedMatchesDynamicOnCalibrationData)
{
    Rng rng(7);
    Matrix x = outlierActivation(32, 32, rng);
    Matrix w = randomGaussian(32, 16, rng, 0.f, 0.05f);
    TenderConfig cfg;
    cfg.rowChunk = 16;
    // Calibrating on x itself gives identical metadata to the dynamic path.
    std::vector<ChunkMeta> metas;
    for (const auto &[r0, r1] : chunkRanges(x.rows(), cfg.rowChunk))
        metas.push_back(decomposeChunk(x.rowSlice(r0, r1), cfg));
    Matrix y_dyn = tenderMatmul(x, w, cfg);
    Matrix y_cal = tenderMatmulCalibrated(x, w, metas, cfg);
    EXPECT_LE(maxAbsDiff(y_dyn, y_cal), 1e-6f);
}

TEST(TenderGemm, CalibratedCountsMetaReuseForExtraChunks)
{
    // An eval tensor with more chunks than the calibration run reuses the
    // final calibrated entry; the reuse must be accounted in the stats
    // rather than clamped silently.
    Rng rng(21);
    Matrix x = outlierActivation(64, 32, rng);
    Matrix w = randomGaussian(32, 16, rng, 0.f, 0.05f);
    TenderConfig cfg;
    cfg.rowChunk = 16; // 4 eval chunks
    std::vector<ChunkMeta> metas = {decomposeChunk(x.rowSlice(0, 16), cfg)};
    TenderGemmStats stats;
    tenderMatmulCalibrated(x, w, metas, cfg, &stats);
    EXPECT_EQ(stats.chunks, 4);
    EXPECT_EQ(stats.metaReuses, 3);

    // Full calibration coverage reports zero reuse.
    std::vector<ChunkMeta> full;
    for (const auto &[r0, r1] : chunkRanges(x.rows(), cfg.rowChunk))
        full.push_back(decomposeChunk(x.rowSlice(r0, r1), cfg));
    TenderGemmStats covered;
    tenderMatmulCalibrated(x, w, full, cfg, &covered);
    EXPECT_EQ(covered.metaReuses, 0);
}

TEST(TenderGemm, CalibratedClampsUnseenMagnitudes)
{
    Rng rng(8);
    Matrix x_cal = randomGaussian(32, 16, rng, 0.f, 1.f);
    Matrix x_eval = scale(x_cal, 4.f); // 4x beyond the calibrated envelope
    Matrix w = randomGaussian(16, 8, rng, 0.f, 0.1f);
    TenderConfig cfg;
    cfg.rowChunk = 0;
    std::vector<ChunkMeta> metas = {decomposeChunk(x_cal, cfg)};
    Matrix y = tenderMatmulCalibrated(x_eval, w, metas, cfg);
    // Saturation bounds the output rather than wrapping or crashing.
    Matrix ref = gemm(x_eval, w);
    EXPECT_GT(nmse(ref, y), 0.0);
    EXPECT_LT(nmse(ref, y), 1.0);
}

TEST(TenderGemm, RowChunkingHelpsTokenVariance)
{
    // Rows with very different magnitudes benefit from per-chunk scales
    // (the paper's intra-channel variance argument for chunking).
    Rng rng(9);
    Matrix x = randomGaussian(64, 32, rng, 0.f, 0.5f);
    for (int r = 32; r < 64; ++r)
        for (int c = 0; c < 32; ++c)
            x(r, c) *= 40.f;
    Matrix w = randomGaussian(32, 16, rng, 0.f, 0.05f);
    Matrix ref = gemm(x, w);
    TenderConfig chunked, whole;
    chunked.bits = whole.bits = 4;
    chunked.rowChunk = 32;
    whole.rowChunk = 0;
    const double e_chunked = nmse(ref, tenderMatmul(x, w, chunked));
    const double e_whole = nmse(ref, tenderMatmul(x, w, whole));
    EXPECT_LT(e_chunked, e_whole);
}

TEST(TenderGemm, Int4WorseThanInt8)
{
    Rng rng(10);
    Matrix x = outlierActivation(32, 32, rng);
    Matrix w = randomGaussian(32, 16, rng, 0.f, 0.05f);
    Matrix ref = gemm(x, w);
    TenderConfig c4, c8;
    c4.bits = 4;
    c8.bits = 8;
    EXPECT_GT(nmse(ref, tenderMatmul(x, w, c4)),
              nmse(ref, tenderMatmul(x, w, c8)));
}

TEST(TenderGemm, AlphaFourCoarserThanAlphaTwo)
{
    // Wider thresholds -> fewer effective scale levels -> more error.
    Rng rng(11);
    Matrix x = outlierActivation(48, 64, rng, 60.f);
    Matrix w = randomGaussian(64, 24, rng, 0.f, 0.05f);
    Matrix ref = gemm(x, w);
    TenderConfig a2, a4;
    a2.bits = a4.bits = 4;
    a2.alpha = 2;
    a4.alpha = 4;
    const double e2 = nmse(ref, tenderMatmul(x, w, a2));
    const double e4 = nmse(ref, tenderMatmul(x, w, a4));
    EXPECT_LE(e2, e4 * 1.2);
}

TEST(TenderScheme, FakeQuantMatchesPipelineError)
{
    Rng rng(12);
    Matrix x = outlierActivation(32, 32, rng);
    Matrix w = randomGaussian(32, 16, rng, 0.f, 0.05f);
    TenderConfig cfg;
    TenderScheme scheme(cfg);
    Matrix ref = gemm(x, w);
    const double e_pipeline = nmse(ref, scheme.matmul(x, w));
    const double e_fake =
        nmse(ref, gemm(scheme.fakeQuant(x, Operand::Activation),
                       scheme.fakeQuant(w, Operand::Weight)));
    EXPECT_NEAR(e_pipeline, e_fake, std::max(1e-9, e_fake * 0.05));
}

/** Bitwise equality: operator== would also accept -0.0 for +0.0. */
bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
        std::memcmp(a.data().data(), b.data().data(),
                    a.size() * sizeof(float)) == 0;
}

/** Every row of a constant-column activation is the same, so each
 *  channel's bias is its value and every code is zero. */
Matrix
constantColumns(int rows, int cols, Rng &rng)
{
    const Matrix row = randomGaussian(1, cols, rng);
    Matrix m(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            m(r, c) = row(0, c);
    return m;
}

/** prepare(w)->matmul(x) and the per-call tenderMatmul(x, w) on every
 *  backend against the Serial per-call product (the golden walk), bit for
 *  bit: a lone decode row, one whole chunk, a chunk plus a one-row tail, a
 *  chunk plus a three-row tail (rows left over from the folded kernel's
 *  4-row tile), and two chunks, each with an outlier channel every 13 (so
 *  group 0 is occupied) and with constant columns (so every code is zero
 *  and the folded GEMM is skipped), plus any `extra` activations. */
void
expectPreparedMatchesPerCall(const Matrix &w, const TenderConfig &cfg,
                             Rng &rng,
                             const std::vector<Matrix> &extra = {})
{
    std::vector<Matrix> xs = extra;
    for (int rows : {1, 32, 33, 35, 64}) {
        xs.push_back(outlierActivation(rows, w.rows(), rng));
        xs.push_back(constantColumns(rows, w.rows(), rng));
    }
    KernelContext serial(Backend::Serial);
    std::vector<Matrix> golden;
    for (const Matrix &x : xs)
        golden.push_back(tenderMatmul(x, w, cfg, nullptr, &serial));
    for (Backend backend :
         {Backend::Serial, Backend::Threaded, Backend::Packed}) {
        KernelContext kc(backend, 2);
        TenderScheme scheme(cfg);
        scheme.setKernels(&kc);
        const std::unique_ptr<PreparedWeight> prepared = scheme.prepare(w);
        for (size_t i = 0; i < xs.size(); ++i) {
            const Matrix per_call = tenderMatmul(xs[i], w, cfg, nullptr, &kc);
            EXPECT_TRUE(bitIdentical(prepared->matmul(xs[i]), golden[i]) &&
                        bitIdentical(per_call, golden[i]))
                << backendName(backend) << " bits=" << cfg.bits
                << " G=" << cfg.numGroups << " alpha=" << cfg.alpha
                << " K=" << w.rows() << " x#" << i << " ("
                << xs[i].rows() << " rows)";
        }
    }
}

/** The fold bound's worst case at K channels: rows of alternating sign
 *  keep every bias at zero, so every code is +-maxCode in group 0. */
Matrix
worstCaseActivation(int rows, int k)
{
    Matrix worst(rows, k);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < k; ++c)
            worst(r, c) = (r % 2) ? 1.f : -1.f;
    return worst;
}

TEST(TenderScheme, PreparedWeightMatchesPerCallBitExact)
{
    // Every product, prepared or per call, on every backend, must equal
    // the golden walk: the pooled backends fold each chunk inside the
    // per-chunk bound (G 1, or G 8 at alpha 2, at either width, always
    // here) and walk the rest. N = 300 spans two 128-column slices plus a
    // partial one.
    Rng rng(41);
    const Matrix w = randomGaussian(64, 300, rng, 0.f, 0.05f);
    for (int bits : {4, 8})
        for (int groups : {1, 8})
            for (int alpha : {2, 4}) {
                TenderConfig cfg;
                cfg.bits = bits;
                cfg.numGroups = groups;
                cfg.alpha = alpha;
                cfg.rowChunk = 32;
                expectPreparedMatchesPerCall(w, cfg, rng);
            }

    // The bound's worst case at 8 bits, G = 8, alpha = 2: every code is
    // +-127 in group 0 and a constant weight codes to 127, so S =
    // K * 127^2 * 2^7 and every output reaches it. It fits int32 up to
    // K = 1040; N = 130 is not a multiple of the kernel's 4-column tile.
    TenderConfig serve;
    serve.rowChunk = 32;
    const auto worst_chunk = [&](int k) {
        const Matrix chunk = worstCaseActivation(serve.rowChunk, k);
        return quantizeChunk(chunk, decomposeChunk(chunk, serve), serve.bits);
    };
    EXPECT_TRUE(foldedChunkFits(worst_chunk(1040), serve));
    EXPECT_FALSE(foldedChunkFits(worst_chunk(1041), serve));
    EXPECT_FALSE(foldedChunkFits(worst_chunk(4096), serve));
    expectPreparedMatchesPerCall(Matrix(1040, 130, 0.5f), serve, rng,
                                 {worstCaseActivation(64, 1040)});
    // One channel more leaves int32: the golden walk rightly panics, and
    // with the check off it returns the exact int64 value where an
    // unbounded fold would wrap, so every backend must fall back.
    TenderConfig unchecked = serve;
    unchecked.checkOverflow = false;
    expectPreparedMatchesPerCall(Matrix(1041, 130, 0.5f), unchecked, rng,
                                 {worstCaseActivation(64, 1041)});
    // One worker: a pooled backend whose child process starts no thread.
    EXPECT_DEATH(
        {
            KernelContext threaded(Backend::Threaded, 1);
            TenderScheme scheme(serve);
            scheme.setKernels(&threaded);
            const Matrix w1041(1041, 130, 0.5f);
            scheme.prepare(w1041)->matmul(worstCaseActivation(32, 1041));
        },
        "overflow");

    // Gaussian weights on both sides of the old shape bound (K 1040 and
    // 1041) and at K = 4096, OPT-6.7B's hidden size. The worst-case
    // activation falls back at 1041 and 4096 and, against these weights,
    // stays inside int32, so the walk's checks pass.
    for (int k : {1040, 1041, 4096})
        expectPreparedMatchesPerCall(randomGaussian(k, 130, rng, 0.f, 0.05f),
                                     serve, rng, {worstCaseActivation(64, k)});

    // The OPT-6.7B /16 serving replica's projection shapes: q/k/v/o and
    // fc1 read K = 256, fc2 K = 1024.
    for (const auto &[k, n] : {std::pair{256, 1024}, std::pair{1024, 256}})
        expectPreparedMatchesPerCall(randomGaussian(k, n, rng, 0.f, 0.05f),
                                     serve, rng);
}

TEST(TenderScheme, NameAndConfig)
{
    TenderConfig cfg;
    cfg.numGroups = 12;
    TenderScheme scheme(cfg);
    EXPECT_EQ(scheme.name(), "Tender");
    EXPECT_EQ(scheme.config().numGroups, 12);
}

TEST(BiasCorrectionRow, MatchesDenseProduct)
{
    // A one-row chunk is its own bias, so its codes are zero and its
    // product is its bias-correction row alone: one row, and a stack of
    // one-row segments sharing the stacked pass, must match the dense
    // product on every backend. The first row holds two zero biases.
    Rng rng(13);
    const Matrix w = randomGaussian(8, 4, rng);
    Matrix x = randomGaussian(3, 8, rng);
    const float first[] = {1.f, -2.f, 0.f, 3.f, 0.5f, 0.f, -1.f, 2.f};
    for (int c = 0; c < 8; ++c)
        x(0, c) = first[c];
    const Matrix expect = gemm(x, w);
    const TenderConfig cfg;
    const QuantizedWeight qw = quantizeWeight(w, cfg.bits);
    for (Backend backend :
         {Backend::Serial, Backend::Threaded, Backend::Packed}) {
        KernelContext kc(backend, 2);
        EXPECT_LE(maxAbsDiff(tenderMatmul(x.rowSlice(0, 1), w, cfg, nullptr,
                                          &kc),
                             expect.rowSlice(0, 1)),
                  1e-5f)
            << backendName(backend);
        EXPECT_LE(maxAbsDiff(tenderMatmulSegments(x, {1, 1, 1}, qw, w, cfg,
                                                  nullptr, &kc),
                             expect),
                  1e-5f)
            << backendName(backend);
    }
}

/** Each segment of `x` multiplied alone on the Serial backend (the golden
 *  walk, one per-call product per segment), stacked back. */
Matrix
perSegmentGolden(const Matrix &x, const std::vector<int> &segments,
                 const Matrix &w, const TenderConfig &cfg)
{
    KernelContext serial(Backend::Serial);
    Matrix y(x.rows(), w.cols());
    int row0 = 0;
    for (int rows : segments) {
        const Matrix ys = tenderMatmul(x.rowSlice(row0, row0 + rows), w, cfg,
                                       nullptr, &serial);
        for (int r = 0; r < rows; ++r)
            for (int j = 0; j < w.cols(); ++j)
                y(row0 + r, j) = ys(r, j);
        row0 += rows;
    }
    return y;
}

std::string
segmentsName(const std::vector<int> &segments)
{
    std::string name;
    for (int rows : segments)
        name += (name.empty() ? "" : ",") + std::to_string(rows);
    return "{" + name + "}";
}

TEST(TenderScheme, SegmentedProductMatchesPerSegmentBitExact)
{
    // Chunks restart at every segment, so a segmented product must give
    // each segment's rows exactly the Serial per-call product of that
    // segment alone, on every backend and worker count, however its
    // one-row chunks are served: a decode step, ragged prefills between
    // decode rows, a long prefill beside seven decode rows, and one
    // segment; at the serving replica's shapes.
    TenderConfig serve;
    serve.rowChunk = 32;
    const std::vector<std::vector<int>> segmentations = {
        {1, 1, 1, 1, 1, 1, 1, 1},
        {1, 35, 1, 64, 3, 1},
        {300, 1, 1, 1, 1, 1, 1, 1},
        {33}};
    Rng rng(43);
    for (const auto &[k, n] : {std::pair{256, 256}, std::pair{256, 1024},
                               std::pair{1024, 256}}) {
        const Matrix w = randomGaussian(k, n, rng, 0.f, 0.05f);
        for (const std::vector<int> &segments : segmentations) {
            int rows = 0;
            for (int r : segments)
                rows += r;
            const Matrix x = outlierActivation(rows, k, rng);
            const Matrix golden = perSegmentGolden(x, segments, w, serve);
            for (Backend backend :
                 {Backend::Serial, Backend::Threaded, Backend::Packed})
                for (int workers : {1, 2, 4}) {
                    KernelContext kc(backend, workers);
                    TenderScheme scheme(serve);
                    scheme.setKernels(&kc);
                    EXPECT_TRUE(bitIdentical(
                        scheme.prepare(w)->matmulSegments(x, segments),
                        golden))
                        << backendName(backend) << " x" << workers << " K="
                        << k << " N=" << n << " " << segmentsName(segments);
                }
        }
    }

    // Where the one-row shortcut must not apply, the general path runs
    // and still matches: a row past FLT_MAX / 2 (its bias overflows to
    // inf), no bias subtraction (one-row codes are non-zero), and a stats
    // request (the golden walk, counting every chunk). A weight holding
    // inf gives its column an infinite scale, which the shortcut's zero
    // accumulator must turn into NaN as the general path's does.
    const std::vector<int> segments = {1, 35, 1, 64, 3, 1};
    const Matrix w = randomGaussian(256, 256, rng, 0.f, 0.05f);
    Matrix x = outlierActivation(105, 256, rng);
    Matrix huge = x;
    huge(36, 7) = 3e38f; // the second one-row segment
    Matrix w_inf = w;
    w_inf(3, 5) = std::numeric_limits<float>::infinity();
    TenderConfig unbiased = serve;
    unbiased.biasSubtract = false;
    struct Case
    {
        const char *name;
        const Matrix &x, &w;
        TenderConfig cfg;
    };
    const Case cases[] = {{"row past FLT_MAX / 2", huge, w, serve},
                          {"no bias subtraction", x, w, unbiased},
                          {"inf weight", x, w_inf, serve}};
    for (Backend backend : {Backend::Threaded, Backend::Packed}) {
        KernelContext kc(backend, 2);
        for (const Case &c : cases) {
            TenderScheme scheme(c.cfg);
            scheme.setKernels(&kc);
            EXPECT_TRUE(bitIdentical(
                scheme.prepare(c.w)->matmulSegments(c.x, segments),
                perSegmentGolden(c.x, segments, c.w, c.cfg)))
                << backendName(backend) << " " << c.name;
        }
        TenderGemmStats stats;
        EXPECT_TRUE(bitIdentical(
            tenderMatmulSegments(x, segments, quantizeWeight(w, serve.bits), w,
                                 serve, &stats, &kc),
            perSegmentGolden(x, segments, w, serve)))
            << backendName(backend) << " with stats";
        EXPECT_EQ(stats.chunks, 8); // 1 + 2 + 1 + 2 + 1 + 1
    }
}

TEST(TenderScheme, SegmentedProductEmptyShapes)
{
    // A weight with no output columns gives an x.rows() x 0 product on
    // every backend, as the per-call path does; a segmented product with
    // no segment is rejected, by the Tender pipeline and the base default.
    const TenderConfig cfg;
    Rng rng(47);
    const Matrix x = randomGaussian(3, 16, rng);
    const Matrix w0(16, 0);
    const QuantizedWeight qw0 = quantizeWeight(w0, cfg.bits);
    for (Backend backend :
         {Backend::Serial, Backend::Threaded, Backend::Packed}) {
        KernelContext kc(backend, 2);
        const Matrix y = tenderMatmulSegments(x, {1, 2}, qw0, w0, cfg,
                                              nullptr, &kc);
        EXPECT_EQ(y.rows(), 3) << backendName(backend);
        EXPECT_EQ(y.cols(), 0) << backendName(backend);
        EXPECT_EQ(tenderMatmul(x, w0, cfg, nullptr, &kc).cols(), 0)
            << backendName(backend);
    }
    // The rejection exits, running static destructors, so the child must
    // not be a fork of this process, whose pool threads it would lack.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Matrix w = randomGaussian(16, 8, rng);
    EXPECT_DEATH(tenderMatmulSegments(Matrix(0, 16), {},
                                      quantizeWeight(w, cfg.bits), w, cfg),
                 "needs a segment");
    const TenderScheme scheme(cfg);
    const auto prepared = scheme.prepare(w);
    EXPECT_DEATH(prepared->PreparedWeight::matmulSegments(Matrix(0, 16), {}),
                 "needs a segment");
}

} // namespace
} // namespace tender
