/**
 * @file
 * Tests for the parallel kernel layer: thread-pool partition coverage, and
 * determinism of the threaded backend — every kernel and the full Tender
 * pipeline must match the serial golden backend EXACTLY (bit-identical,
 * not within a tolerance) across 1, 2, and 8 workers and across repeated
 * runs, because the task partition is fixed by problem shape and the
 * per-range arithmetic is shared with the serial code.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "core/tender_gemm.h"
#include "tensor/kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tender {
namespace {

constexpr int kWorkerCounts[] = {1, 2, 8};

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

TEST(ThreadPool, PartitionCoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(0, 1000, 7, [&](int64_t b, int64_t e) {
        EXPECT_LE(e - b, 7);
        for (int64_t i = b; i < e; ++i)
            ++hits[size_t(i)];
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndSingleRanges)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::atomic<int> total{0};
    pool.parallelFor(3, 4, 1, [&](int64_t b, int64_t e) {
        total += int(e - b);
    });
    EXPECT_EQ(total.load(), 1);
}

TEST(ThreadPool, NestedCallsRunInline)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.parallelFor(0, 8, 1, [&](int64_t b, int64_t e) {
        // From inside a task the pool must not deadlock; the nested loop
        // runs inline on this worker.
        pool.parallelFor(0, 4, 1, [&](int64_t nb, int64_t ne) {
            total += int(ne - nb) * int(e - b);
        });
    });
    EXPECT_EQ(total.load(), 8 * 4);
}

TEST(ThreadPool, ConfiguredWorkersIsPositive)
{
    EXPECT_GE(ThreadPool::configuredWorkers(), 1);
}

TEST(Kernels, GemmBitIdenticalToSerialAcrossWorkerCounts)
{
    Rng rng(11);
    const Matrix a = randomGaussian(130, 67, rng);
    const Matrix b = randomGaussian(67, 129, rng);
    const Matrix expect = gemm(a, b); // serial golden
    for (int workers : kWorkerCounts) {
        KernelContext kc(Backend::Threaded, workers);
        const Matrix got = kc.gemm(a, b);
        EXPECT_TRUE(got == expect) << "workers=" << workers;
    }
    KernelContext serial(Backend::Serial);
    EXPECT_TRUE(serial.gemm(a, b) == expect);
}

TEST(Kernels, GemmRepeatedRunsIdentical)
{
    Rng rng(12);
    const Matrix a = randomGaussian(96, 64, rng);
    const Matrix b = randomGaussian(64, 96, rng);
    KernelContext kc(Backend::Threaded, 8);
    const Matrix first = kc.gemm(a, b);
    for (int rep = 0; rep < 3; ++rep)
        EXPECT_TRUE(kc.gemm(a, b) == first) << "rep=" << rep;
}

TEST(Kernels, GemmTransposedBBitIdentical)
{
    Rng rng(13);
    const Matrix a = randomGaussian(70, 40, rng);
    const Matrix b = randomGaussian(50, 40, rng);
    const Matrix expect = gemmTransposedB(a, b);
    for (int workers : kWorkerCounts) {
        KernelContext kc(Backend::Threaded, workers);
        EXPECT_TRUE(kc.gemmTransposedB(a, b) == expect)
            << "workers=" << workers;
    }
}

TEST(Kernels, GemmIntExactAcrossWorkerCounts)
{
    Rng rng(14);
    IntMatrix a(37, 53), b(53, 41);
    for (auto &v : a.data())
        v = int32_t(rng.randint(-127, 127));
    for (auto &v : b.data())
        v = int32_t(rng.randint(-127, 127));
    const MatrixT<int64_t> expect = gemmInt(a, b);
    for (int workers : kWorkerCounts) {
        KernelContext kc(Backend::Threaded, workers);
        EXPECT_TRUE(kc.gemmInt(a, b) == expect) << "workers=" << workers;
    }
}

TEST(Kernels, ElementwiseOpsBitIdentical)
{
    Rng rng(15);
    const Matrix m = randomGaussian(65, 33, rng, 0.f, 3.f);
    const Matrix b = randomGaussian(65, 33, rng);
    const Matrix row = randomGaussian(1, 33, rng);
    const Matrix gain(1, 33, 1.f), bias(1, 33, 0.f);
    for (int workers : kWorkerCounts) {
        KernelContext kc(Backend::Threaded, workers);
        EXPECT_TRUE(kc.relu(m) == relu(m));
        EXPECT_TRUE(kc.gelu(m) == gelu(m));
        EXPECT_TRUE(kc.scale(m, -1.7f) == scale(m, -1.7f));
        EXPECT_TRUE(kc.axpby(2.f, m, 0.5f, b) == axpby(2.f, m, 0.5f, b));
        EXPECT_TRUE(kc.addRowVector(m, row) == addRowVector(m, row));
        EXPECT_TRUE(kc.softmaxRows(m) == softmaxRows(m));
        EXPECT_TRUE(kc.layerNorm(m, gain, bias) == layerNorm(m, gain, bias));
    }
}

TEST(Kernels, TenderMatmulBitIdenticalAcrossWorkerCounts)
{
    Rng rng(16);
    const Matrix x = outlierActivation(96, 128, rng);
    const Matrix w = randomGaussian(128, 96, rng, 0.f, 0.05f);
    TenderConfig cfg;
    cfg.bits = 8;
    cfg.numGroups = 4;
    cfg.rowChunk = 32;

    KernelContext serial(Backend::Serial);
    TenderGemmStats serial_stats;
    const Matrix expect = tenderMatmul(x, w, cfg, &serial_stats, &serial);

    // A stats request runs the golden walk on every backend; without
    // stats the threaded chunks fold. Both must be the serial bits.
    for (int workers : kWorkerCounts) {
        KernelContext kc(Backend::Threaded, workers);
        TenderGemmStats stats;
        const Matrix got = tenderMatmul(x, w, cfg, &stats, &kc);
        EXPECT_TRUE(got == expect) << "workers=" << workers;
        EXPECT_EQ(stats.macs, serial_stats.macs);
        EXPECT_EQ(stats.rescales, serial_stats.rescales);
        EXPECT_EQ(stats.chunks, serial_stats.chunks);
        EXPECT_EQ(stats.peakAbsAcc, serial_stats.peakAbsAcc);
        EXPECT_EQ(stats.overflow32, serial_stats.overflow32);
        EXPECT_TRUE(tenderMatmul(x, w, cfg, nullptr, &kc) == expect)
            << "workers=" << workers << " (no stats)";
    }
}

TEST(Kernels, TenderMatmulRepeatedRunsIdentical)
{
    Rng rng(17);
    const Matrix x = outlierActivation(64, 96, rng);
    const Matrix w = randomGaussian(96, 48, rng, 0.f, 0.05f);
    TenderConfig cfg;
    cfg.rowChunk = 16;
    KernelContext kc(Backend::Threaded, 8);
    const Matrix first = tenderMatmul(x, w, cfg, nullptr, &kc);
    for (int rep = 0; rep < 3; ++rep)
        EXPECT_TRUE(tenderMatmul(x, w, cfg, nullptr, &kc) == first);
}

TEST(Kernels, TenderMatmulFourBitUsesFastPathConsistently)
{
    Rng rng(18);
    const Matrix x = outlierActivation(48, 64, rng);
    const Matrix w = randomGaussian(64, 32, rng, 0.f, 0.1f);
    TenderConfig cfg;
    cfg.bits = 4;
    cfg.rowChunk = 16;
    KernelContext serial(Backend::Serial);
    KernelContext threaded(Backend::Threaded, 4);
    EXPECT_TRUE(tenderMatmul(x, w, cfg, nullptr, &threaded) ==
                tenderMatmul(x, w, cfg, nullptr, &serial));
}

TEST(Kernels, TenderMatmulExplicitMatchesSerial)
{
    Rng rng(19);
    const Matrix x = outlierActivation(48, 64, rng);
    const Matrix w = randomGaussian(64, 40, rng, 0.f, 0.05f);
    TenderConfig cfg;
    cfg.rowChunk = 16;
    KernelContext serial(Backend::Serial);
    KernelContext threaded(Backend::Threaded, 8);
    EXPECT_TRUE(tenderMatmulExplicit(x, w, cfg, &threaded) ==
                tenderMatmulExplicit(x, w, cfg, &serial));
}

TEST(Kernels, CalibratedPipelineBitIdentical)
{
    Rng rng(20);
    const Matrix x = outlierActivation(64, 48, rng);
    const Matrix w = randomGaussian(48, 24, rng, 0.f, 0.05f);
    TenderConfig cfg;
    cfg.rowChunk = 16;
    std::vector<ChunkMeta> metas;
    for (const auto &[r0, r1] : chunkRanges(x.rows(), cfg.rowChunk))
        metas.push_back(decomposeChunk(x.rowSlice(r0, r1), cfg));
    KernelContext serial(Backend::Serial);
    KernelContext threaded(Backend::Threaded, 8);
    EXPECT_TRUE(tenderMatmulCalibrated(x, w, metas, cfg, nullptr,
                                       &threaded) ==
                tenderMatmulCalibrated(x, w, metas, cfg, nullptr, &serial));
}

TEST(Kernels, DefaultContextIsConfigurable)
{
    setDefaultKernels(Backend::Threaded, 2);
    EXPECT_EQ(defaultKernels().backend(), Backend::Threaded);
    EXPECT_EQ(defaultKernels().workers(), 2);
    setDefaultKernels(Backend::Serial);
    EXPECT_EQ(defaultKernels().backend(), Backend::Serial);
    EXPECT_EQ(defaultKernels().workers(), 1);
    setDefaultKernels(Backend::Threaded, 0); // restore auto
}

} // namespace
} // namespace tender
