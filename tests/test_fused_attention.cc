/**
 * @file
 * Fused integer-domain quantized-KV attention (ISSUE 4):
 *
 *  - gemmInt8 panel kernel: serial vs threaded bit-parity and agreement
 *    with a plain int64 reference, narrow (int32-accumulator) and wide
 *    shapes alike.
 *  - attentionHeadFusedQuant vs the dequantize-on-read oracle
 *    (attentionHeadIncremental over materialized history): NMSE bounded
 *    per (segment, head), and *bit-identical* when every cached value
 *    lands exactly on a power-of-two-scale code grid (the integer path
 *    and the fp oracle then compute the same exact reals).
 *  - Paged-layout invariance: fused scores are bit-stable across block
 *    churn — a cache whose pages were previously owned by a retired
 *    request reproduces identical fused attention, and block boundaries
 *    inside a multi-chunk block never move results.
 *  - The memoized fallback path: incremental keys()/values() reads equal
 *    one-shot reads of the same history bit for bit.
 *  - End-to-end decode: fused quantized-KV hidden states stay within the
 *    recorded NMSE bound of the dequantize path; an Fp32 cache ignores
 *    the flag (bit-identical); fused generation is batch-size
 *    independent under the continuous-batching scheduler.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "model/transformer.h"
#include "quant/metrics.h"
#include "runtime/batch_scheduler.h"
#include "runtime/decode_engine.h"

namespace tender {
namespace {

ModelConfig
smallDecoder(int d_model = 64, int heads = 2, int layers = 2)
{
    ModelConfig cfg;
    cfg.name = "fused-attn-test";
    cfg.family = Family::Opt;
    cfg.dModel = d_model;
    cfg.nHeads = heads;
    cfg.kvHeads = heads;
    cfg.nLayers = layers;
    cfg.dFfn = 2 * d_model;
    cfg.decoder = true;
    return cfg;
}

KVCacheConfig
quantConfig(int row_chunk = 8)
{
    KVCacheConfig cfg;
    cfg.mode = KVCacheMode::TenderQuantized;
    cfg.tender.rowChunk = row_chunk;
    cfg.tender.numGroups = 4;
    return cfg;
}

/** Append `t` random K/V rows to every layer of `cache`. */
void
appendRandom(KVCache &cache, const ModelConfig &cfg, int t, Rng &rng)
{
    const int cols = cfg.kvHeads * cfg.headDim();
    for (int l = 0; l < cfg.nLayers; ++l) {
        // Distinct draws per layer so layers don't alias.
        Matrix k = randomGaussian(t, cols, rng);
        Matrix v = randomGaussian(t, cols, rng);
        cache.append(l, k, v);
    }
}

IntMatrix
randomCodes(int rows, int cols, int lo, int hi, Rng &rng)
{
    IntMatrix m(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            m(r, c) = int32_t(rng.randint(lo, hi));
    return m;
}

TEST(GemmInt8, SerialThreadedBitParityAndReference)
{
    Rng rng(7);
    KernelContext serial(Backend::Serial);
    KernelContext threaded(Backend::Threaded, 4);
    struct Shape { int m, n, k, aAbs, bAbs; };
    const std::vector<Shape> shapes = {
        {1, 16, 32, 127, 127},   // decode-step score panel
        {5, 33, 7, 127, 127},    // ragged panel
        {8, 64, 128, 127, 127},  // wider head
        // Shifted query codes (alpha-rescale folded in): still narrow.
        {3, 16, 32, 16256, 127},
        // Forces the checked int64 fallback (a past the narrow scan cap)
        // while the true sums still fit the modeled int32 accumulator.
        {2, 9, 2, 1500000, 600},
    };
    for (const Shape &s : shapes) {
        const IntMatrix a = randomCodes(s.m, s.k, -s.aAbs, s.aAbs, rng);
        const IntMatrix b = randomCodes(s.n, s.k, -s.bAbs, s.bAbs, rng);
        const IntMatrix cs = serial.gemmInt8(a, b);
        const IntMatrix ct = threaded.gemmInt8(a, b);
        ASSERT_EQ(cs.rows(), s.m);
        ASSERT_EQ(cs.cols(), s.n);
        for (int i = 0; i < s.m; ++i) {
            for (int j = 0; j < s.n; ++j) {
                int64_t ref = 0;
                for (int p = 0; p < s.k; ++p)
                    ref += int64_t(a(i, p)) * int64_t(b(j, p));
                ASSERT_EQ(int64_t(cs(i, j)), ref)
                    << "serial mismatch at (" << i << "," << j << ")";
                ASSERT_EQ(cs(i, j), ct(i, j))
                    << "backend mismatch at (" << i << "," << j << ")";
            }
        }
    }
}

TEST(FusedAttention, NmseBoundPerSegmentAndHead)
{
    const ModelConfig cfg = smallDecoder();
    const KernelContext kc(Backend::Threaded, 4);
    Rng rng(21);
    // Two "segments": caches with different history lengths — one ending
    // on a chunk boundary, one with an open chunk.
    const std::vector<int> lengths = {24, 37};
    for (size_t seg = 0; seg < lengths.size(); ++seg) {
        KVCache cache(cfg, quantConfig());
        appendRandom(cache, cfg, lengths[seg], rng);
        for (int layer = 0; layer < cfg.nLayers; ++layer) {
            for (int h = 0; h < cfg.kvHeads; ++h) {
                for (int qrows : {1, 3}) {
                    const Matrix q =
                        randomGaussian(qrows, cfg.headDim(), rng);
                    const int pos0 = lengths[seg] - qrows;
                    const Matrix oracle = attentionHeadIncremental(
                        q, cache.keys(layer, h), cache.values(layer, h),
                        pos0, &kc);
                    const Matrix fused = attentionHeadFusedQuant(
                        q, cache.keyView(layer, h),
                        cache.valueView(layer, h), pos0, kc);
                    const double e = nmse(oracle, fused);
                    EXPECT_LE(e, 2e-3)
                        << "segment " << seg << " layer " << layer
                        << " head " << h << " qrows " << qrows;
                }
            }
        }
    }
}

/** K/V (and q) rows whose values sit exactly on an int8 code grid with
 *  power-of-two scales: column c of head `h` belongs to scale group
 *  c % 3, every chunk's channel max hits the group threshold exactly, and
 *  biasSubtract is off — so quantization is lossless and the integer
 *  fused path computes the same exact reals as the fp oracle. */
Matrix
gridRows(int t, int cols, int row_chunk, int base_exp, Rng &rng)
{
    Matrix m(t, cols);
    for (int r = 0; r < t; ++r) {
        for (int c = 0; c < cols; ++c) {
            const int g = c % 3;
            const int code = (r % row_chunk == 0)
                ? 127
                : int(rng.randint(-127, 127));
            m(r, c) = float(code) * std::ldexp(1.f, -(base_exp + g));
        }
    }
    return m;
}

TEST(FusedAttention, ExactOnPowerOfTwoScaleChunks)
{
    const ModelConfig cfg = smallDecoder();
    const KernelContext kc(Backend::Threaded, 3);
    KVCacheConfig qcfg = quantConfig(8);
    qcfg.tender.biasSubtract = false;
    Rng rng(5);
    const int cols = cfg.kvHeads * cfg.headDim();
    for (int len : {16, 19}) { // chunk-aligned and open-chunk histories
        KVCache cache(cfg, qcfg);
        for (int l = 0; l < cfg.nLayers; ++l)
            cache.append(l, gridRows(len, cols, 8, 3, rng),
                         gridRows(len, cols, 8, 4, rng));
        for (int layer = 0; layer < cfg.nLayers; ++layer) {
            for (int h = 0; h < cfg.kvHeads; ++h) {
                // Query rows on the same kind of grid: per-row absmax is
                // exactly 127 * 2^-5, so the row scale and codes are exact.
                Matrix q(2, cfg.headDim());
                for (int r = 0; r < 2; ++r)
                    for (int c = 0; c < cfg.headDim(); ++c) {
                        const int code =
                            c == 0 ? 127 : int(rng.randint(-127, 127));
                        q(r, c) = float(code) * std::ldexp(1.f, -5);
                    }
                const int pos0 = len - q.rows();
                const Matrix oracle = attentionHeadIncremental(
                    q, cache.keys(layer, h), cache.values(layer, h), pos0,
                    &kc);
                const Matrix fused = attentionHeadFusedQuant(
                    q, cache.keyView(layer, h), cache.valueView(layer, h),
                    pos0, kc);
                EXPECT_EQ(maxAbsDiff(oracle, fused), 0.f)
                    << "len " << len << " layer " << layer << " head " << h;
            }
        }
    }
}

TEST(FusedAttention, PagedBlockChurnBitStable)
{
    const ModelConfig cfg = smallDecoder();
    const KernelContext kc(Backend::Threaded, 2);
    KVCacheConfig qcfg = quantConfig(8);
    qcfg.blockTokens = 16; // two chunks per block: fused reads cross
                           // block boundaries inside a store
    BlockAllocator pool(blockPoolConfigFor(cfg, qcfg, /*capacity=*/256));

    const int len = 35;
    const int cols = cfg.kvHeads * cfg.headDim();
    auto makeData = [&](uint64_t seed) {
        Rng rng(seed);
        std::vector<Matrix> kv;
        for (int l = 0; l < cfg.nLayers; ++l) {
            kv.push_back(randomGaussian(len, cols, rng));
            kv.push_back(randomGaussian(len, cols, rng));
        }
        return kv;
    };
    Rng qrng(11);
    const Matrix q = randomGaussian(1, cfg.headDim(), qrng);

    auto runFused = [&](const std::vector<Matrix> &kv) {
        KVCache cache(cfg, qcfg, &pool);
        for (int l = 0; l < cfg.nLayers; ++l)
            cache.append(l, kv[size_t(2 * l)], kv[size_t(2 * l) + 1]);
        Matrix out(cfg.nLayers * cfg.kvHeads, cfg.headDim());
        for (int l = 0; l < cfg.nLayers; ++l)
            for (int h = 0; h < cfg.kvHeads; ++h) {
                const Matrix a = attentionHeadFusedQuant(
                    q, cache.keyView(l, h), cache.valueView(l, h), len - 1,
                    kc);
                for (int c = 0; c < cfg.headDim(); ++c)
                    out(l * cfg.kvHeads + h, c) = a(0, c);
            }
        return out; // cache destructor releases every block to the pool
    };

    const std::vector<Matrix> data = makeData(123);
    const Matrix first = runFused(data);
    // Churn: a different request takes (and dirties) the freed blocks.
    runFused(makeData(456));
    EXPECT_GT(pool.stats().reuses, 0);
    // Re-running the original request on recycled pages must reproduce
    // the scores bit for bit — no stale codes/metadata, and the paging
    // layout never moves numerics.
    const Matrix again = runFused(data);
    EXPECT_EQ(maxAbsDiff(first, again), 0.f);
}

TEST(KVCacheRequant, MatchesFromScratchDecomposition)
{
    // Each chunk is decomposed and quantized once, when its last row
    // arrives: a frozen chunk must store exactly what a one-shot
    // decompose + quantize of its rows stores, and the open chunk's rows
    // must read back as the fp32 rows appended.
    const ModelConfig cfg = smallDecoder(64, 2, 1);
    Rng rng(33);
    for (bool bias_subtract : {true, false}) {
        KVCacheConfig qcfg = quantConfig(8);
        qcfg.tender.biasSubtract = bias_subtract;
        const int total = 29;
        const int cols = cfg.kvHeads * cfg.headDim();
        const Matrix k = randomGaussian(total, cols, rng);
        const Matrix v = randomGaussian(total, cols, rng);
        KVCache cache(cfg, qcfg);
        for (int t = 0; t < total; ++t) {
            cache.append(0, k.rowSlice(t, t + 1), v.rowSlice(t, t + 1));
            cache.trimStaging(0);
        }

        // Reference: per-(head, chunk) decompose + quantize of the head's
        // column slice, the original one-shot pipeline.
        for (int h = 0; h < cfg.kvHeads; ++h) {
            const Matrix kh =
                k.colSlice(h * cfg.headDim(), (h + 1) * cfg.headDim());
            const KVCodeView view = cache.keyView(0, h);
            ASSERT_EQ(3u, view.frozen.size());
            Matrix expect = kh;
            for (int c = 0; c < 3; ++c) {
                const Matrix chunk = kh.rowSlice(c * 8, (c + 1) * 8);
                const QuantizedChunk ref = quantizeChunk(
                    chunk, decomposeChunk(chunk, qcfg.tender),
                    qcfg.tender.bits);
                const QuantizedChunk &got = *view.frozen[size_t(c)];
                EXPECT_TRUE(got.codes == ref.codes)
                    << "biasSubtract " << bias_subtract << " head " << h
                    << " chunk " << c;
                EXPECT_EQ(got.meta.scale, ref.meta.scale);
                EXPECT_EQ(got.meta.bias, ref.meta.bias);
                EXPECT_EQ(got.meta.group, ref.meta.group);
                EXPECT_EQ(got.meta.order, ref.meta.order);
                const Matrix deq = dequantizeChunk(ref);
                for (int r = 0; r < deq.rows(); ++r)
                    for (int col = 0; col < deq.cols(); ++col)
                        expect(c * 8 + r, col) = deq(r, col);
            }
            // Rows 24..28 are the open chunk: fp32, exactly as appended.
            EXPECT_EQ(maxAbsDiff(cache.keys(0, h), expect), 0.f)
                << "biasSubtract " << bias_subtract << " head " << h;
        }
    }
}

TEST(KVCacheRequant, BuildChunkMetaIntoMatchesStatsPath)
{
    Rng rng(44);
    TenderConfig cfg;
    cfg.numGroups = 6;
    for (bool bias_subtract : {true, false}) {
        cfg.biasSubtract = bias_subtract;
        const Matrix chunk = randomGaussian(13, 24, rng);
        const ChannelStats stats = computeChannelStats(chunk);
        const ChunkMeta ref =
            buildChunkMeta(statsFromMinMax(stats.minv, stats.maxv), cfg);
        ChunkMeta into;
        buildChunkMetaInto(into, stats.minv.data(), stats.maxv.data(),
                           chunk.cols(), cfg);
        EXPECT_EQ(ref.bias, into.bias);
        EXPECT_EQ(ref.group, into.group);
        EXPECT_EQ(ref.scale, into.scale);
        EXPECT_EQ(ref.order, into.order);
        EXPECT_EQ(ref.groupStart, into.groupStart);
    }
}

TEST(KVCacheMemo, IncrementalReadsMatchOneShotReads)
{
    const ModelConfig cfg = smallDecoder(64, 2, 1);
    Rng rng(9);
    const int total = 21;
    const int cols = cfg.kvHeads * cfg.headDim();
    const Matrix k = randomGaussian(total, cols, rng);
    const Matrix v = randomGaussian(total, cols, rng);

    KVCache incremental(cfg, quantConfig(4));
    for (int t = 0; t < total; ++t) {
        incremental.append(0, k.rowSlice(t, t + 1), v.rowSlice(t, t + 1));
        // Read every step so the memoized frozen panel is exercised at
        // every freeze boundary, and compare against a fresh cache that
        // sees the same prefix in one shot (no memo history).
        KVCache oneShot(cfg, quantConfig(4));
        oneShot.append(0, k.rowSlice(0, t + 1), v.rowSlice(0, t + 1));
        for (int h = 0; h < cfg.kvHeads; ++h) {
            EXPECT_EQ(maxAbsDiff(incremental.keys(0, h),
                                 oneShot.keys(0, h)), 0.f)
                << "keys diverge at step " << t << " head " << h;
            EXPECT_EQ(maxAbsDiff(incremental.values(0, h),
                                 oneShot.values(0, h)), 0.f)
                << "values diverge at step " << t << " head " << h;
        }
    }
    // The memo is runtime working memory of the materializing path: it is
    // reported (not hidden in storedBytes), grows only when frozen chunks
    // are read, and the fused code-view path never touches it.
    EXPECT_GT(incremental.dequantMemoBytes(), 0u);
    KVCache viewsOnly(cfg, quantConfig(4));
    viewsOnly.append(0, k, v);
    for (int h = 0; h < cfg.kvHeads; ++h) {
        viewsOnly.keyView(0, h);
        viewsOnly.valueView(0, h);
    }
    EXPECT_EQ(viewsOnly.dequantMemoBytes(), 0u);
}

/** Teacher-forced decode: prefill 8 rows, then one row at a time. */
Matrix
teacherForced(SyntheticModel &model, const Matrix &input,
              const DecodeOptions &base, const KernelContext &kc)
{
    DecodeOptions options = base;
    options.kernels = &kc;
    DecodeEngine engine(model, options);
    Matrix out(input.rows(), input.cols());
    const Matrix pre = engine.prefill(input.rowSlice(0, 8));
    for (int r = 0; r < 8; ++r)
        for (int c = 0; c < input.cols(); ++c)
            out(r, c) = pre(r, c);
    for (int r = 8; r < input.rows(); ++r) {
        const Matrix h = engine.step(input.rowSlice(r, r + 1));
        for (int c = 0; c < input.cols(); ++c)
            out(r, c) = h(0, c);
    }
    return out;
}

TEST(FusedDecode, EndToEndNmseBoundAndFp32Fallback)
{
    const ModelConfig cfg = smallDecoder();
    SyntheticModel model(cfg, 3);
    const KernelContext kc(Backend::Threaded, 4);
    const Matrix input = model.sampleInput(24, 17);

    DecodeOptions quant;
    quant.cache = quantConfig();
    DecodeOptions fused = quant;
    fused.fusedQuantKv = true;
    const Matrix oracle = teacherForced(model, input, quant, kc);
    const Matrix fusedOut = teacherForced(model, input, fused, kc);
    EXPECT_LE(nmse(oracle, fusedOut), 2e-3);

    // An Fp32 cache ignores the flag entirely: still bit-identical to the
    // non-fused (and therefore to the full-prefill) hidden states.
    DecodeOptions fp32;
    DecodeOptions fp32Fused;
    fp32Fused.fusedQuantKv = true;
    EXPECT_EQ(maxAbsDiff(teacherForced(model, input, fp32, kc),
                         teacherForced(model, input, fp32Fused, kc)), 0.f);
}

TEST(FusedDecode, SchedulerBatchSizeIndependent)
{
    const ModelConfig cfg = smallDecoder();
    SyntheticModel model(cfg, 3);
    const KernelContext kc(Backend::Threaded, 4);
    const std::vector<GenRequest> requests = {
        {0, {1, 2, 3}, 5},
        {1, {9, 8, 7, 6, 5}, 4},
        {2, {4, 4}, 6},
    };
    auto run = [&](int max_batch) {
        SchedulerOptions options;
        options.maxBatch = max_batch;
        options.vocabSize = 64;
        options.decode.kernels = &kc;
        options.decode.cache = quantConfig();
        options.decode.fusedQuantKv = true;
        BatchScheduler scheduler(model, options);
        for (const GenRequest &r : requests)
            scheduler.submit(r);
        return scheduler.drain();
    };
    const auto one = run(1);
    const auto four = run(4);
    ASSERT_EQ(one.size(), four.size());
    for (size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].id, four[i].id);
        EXPECT_EQ(one[i].tokens, four[i].tokens)
            << "request " << one[i].id
            << " tokens depend on batch size under the fused path";
    }
}

TEST(FusedDecode, PhaseTimesAccumulate)
{
    const ModelConfig cfg = smallDecoder();
    SyntheticModel model(cfg, 3);
    const KernelContext kc(Backend::Threaded, 2);
    DecodePhaseTimes phases;
    DecodeOptions options;
    options.cache = quantConfig();
    options.fusedQuantKv = true;
    options.kernels = &kc;
    options.phases = &phases;
    DecodeEngine engine(model, options);
    engine.prefill(model.sampleInput(6, 1));
    engine.step(model.sampleInput(1, 2));
    EXPECT_EQ(phases.steps, 2);
    EXPECT_GT(phases.projectionsUs, 0.0);
    EXPECT_GT(phases.appendUs, 0.0);
    EXPECT_GT(phases.historyUs, 0.0);
    EXPECT_GT(phases.attentionUs, 0.0);
}

} // namespace
} // namespace tender
