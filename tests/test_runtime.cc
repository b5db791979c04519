/**
 * @file
 * Tests for the decode runtime (src/runtime/): KV cache modes, incremental
 * attention, the decode engine's prefill/step equivalence with full
 * prefill, quantized-cache error behaviour, the continuous-batching
 * scheduler's independence from admission order, batch size, and worker
 * count, and the once-per-construction weight preparation of a
 * GemmScheme.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/tender_scheme.h"
#include "model/quant_executor.h"
#include "model/workload.h"
#include "quant/metrics.h"
#include "runtime/batch_scheduler.h"
#include "runtime/decode_engine.h"
#include "util/rng.h"

namespace tender {
namespace {

ModelConfig
smallDecoder(int kv_heads = 4)
{
    ModelConfig cfg;
    cfg.name = "runtime-test";
    cfg.family = Family::Opt;
    cfg.dModel = 64;
    cfg.nHeads = 4;
    cfg.kvHeads = kv_heads;
    cfg.nLayers = 2;
    cfg.dFfn = 128;
    cfg.decoder = true;
    return cfg;
}

/** Teacher-forced decode: prefill `prefill_rows`, then step the remaining
 *  rows of `input` in steps of `step_rows`; returns the stacked hidden
 *  rows in input order. */
Matrix
teacherForcedDecode(SyntheticModel &model, const Matrix &input,
                    int prefill_rows, int step_rows,
                    const DecodeOptions &options)
{
    DecodeEngine engine(model, options);
    Matrix out(input.rows(), input.cols());
    const Matrix pre = engine.prefill(input.rowSlice(0, prefill_rows));
    for (int r = 0; r < prefill_rows; ++r)
        for (int c = 0; c < input.cols(); ++c)
            out(r, c) = pre(r, c);
    int r = prefill_rows;
    while (r < input.rows()) {
        const int t = std::min(step_rows, input.rows() - r);
        const Matrix h = engine.step(input.rowSlice(r, r + t));
        for (int i = 0; i < t; ++i)
            for (int c = 0; c < input.cols(); ++c)
                out(r + i, c) = h(i, c);
        r += t;
    }
    return out;
}

/** Forwards products to an inner scheme and overrides only matmul, like a
 *  timing wrapper, so the runtime serves it through GemmScheme::prepare's
 *  per-call default. Counts the products it forwards. */
class ForwardingScheme : public GemmScheme
{
  public:
    explicit ForwardingScheme(const GemmScheme &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }
    Matrix
    fakeQuant(const Matrix &m, Operand op) const override
    {
        return inner_.fakeQuant(m, op);
    }
    Matrix
    matmul(const Matrix &x, const Matrix &w) const override
    {
        ++matmuls;
        return inner_.matmul(x, w);
    }

    mutable int64_t matmuls = 0;

  protected:
    const GemmScheme &inner() const { return inner_; }

  private:
    const GemmScheme &inner_;
};

/** A ForwardingScheme that also forwards prepare, counting the calls. */
class CountingScheme : public ForwardingScheme
{
  public:
    using ForwardingScheme::ForwardingScheme;

    std::unique_ptr<PreparedWeight>
    prepare(const Matrix &w) const override
    {
        ++prepares;
        return inner().prepare(w);
    }

    mutable int64_t prepares = 0;
};

std::vector<GenRequest>
mixedRequests(int count)
{
    std::vector<GenRequest> requests;
    for (int i = 0; i < count; ++i) {
        GenRequest r;
        r.id = i;
        for (int t = 0; t < 2 + (5 * i) % 7; ++t)
            r.promptTokens.push_back((3 * i + 7 * t) % 64);
        r.maxNewTokens = 2 + i % 4;
        requests.push_back(r);
    }
    return requests;
}

TEST(IncrementalAttention, MatchesCausalAttentionHead)
{
    Rng rng(1);
    const Matrix q = randomGaussian(10, 16, rng);
    const Matrix k = randomGaussian(10, 16, rng);
    const Matrix v = randomGaussian(10, 16, rng);
    setDefaultKernels(Backend::Serial);
    const Matrix full = attentionHead(q, k, v, /*causal=*/true);
    const Matrix inc = attentionHeadIncremental(q, k, v, /*pos0=*/0);
    EXPECT_TRUE(full == inc);

    // Row-by-row incremental against growing history: bit-identical rows.
    for (int r = 0; r < q.rows(); ++r) {
        const Matrix row = attentionHeadIncremental(
            q.rowSlice(r, r + 1), k.rowSlice(0, r + 1),
            v.rowSlice(0, r + 1), r);
        EXPECT_TRUE(row == full.rowSlice(r, r + 1)) << "row " << r;
    }
}

TEST(DecodeEngine, Fp32CacheMatchesPrefillBitExact)
{
    for (int kv_heads : {4, 2}) {
        SyntheticModel model(smallDecoder(kv_heads), 7);
        const Matrix input = model.sampleInput(24, 3);
        for (int workers : {1, 3}) {
            setDefaultKernels(Backend::Threaded, workers);
            const Matrix full = modelForward(model, input);
            const Matrix dec =
                teacherForcedDecode(model, input, 8, 1, DecodeOptions{});
            EXPECT_EQ(0.f, maxAbsDiff(full, dec))
                << "kvHeads=" << kv_heads << " workers=" << workers;
            EXPECT_TRUE(full == dec);
        }
        // Packed: its projections run SIMD fp32 sums, but attention is
        // golden on every arm, so decode still equals the arm's own
        // modelForward.
        setDefaultKernels(Backend::Packed, 3);
        const Matrix packed_full = modelForward(model, input);
        for (int step : {1, 3}) {
            const Matrix dec =
                teacherForcedDecode(model, input, 8, step, DecodeOptions{});
            EXPECT_TRUE(packed_full == dec)
                << "packed kvHeads=" << kv_heads << " step=" << step
                << " max |diff| " << maxAbsDiff(packed_full, dec);
        }
        setDefaultKernels(Backend::Serial);
        const Matrix full = modelForward(model, input);
        // Multi-token steps (speculative-decode shape) are equally exact.
        const Matrix dec =
            teacherForcedDecode(model, input, 8, 3, DecodeOptions{});
        EXPECT_TRUE(full == dec) << "kvHeads=" << kv_heads;
    }
}

TEST(DecodeEngine, Fp32RowsBeforeANanRowMatchStepwiseDecode)
{
    // A row reads no K or V row past its own position, so a NaN row
    // cannot reach the rows before it: a one-step prefill of the whole
    // sequence equals step-by-step decode on those rows. (Multiplying the
    // masked NaN row's values by a zero probability would give NaN.)
    SyntheticModel model(smallDecoder(2), 7);
    const int len = 12, nan_row = 7;
    Matrix input = model.sampleInput(len, 3);
    for (int c = 0; c < input.cols(); ++c)
        input(nan_row, c) = std::numeric_limits<float>::quiet_NaN();
    for (Backend backend :
         {Backend::Serial, Backend::Threaded, Backend::Packed}) {
        const KernelContext kc(backend, backend == Backend::Serial ? 1 : 3);
        DecodeOptions options;
        options.kernels = &kc;
        for (bool panels : {true, false}) {
            options.mqAttentionPanels = panels;
            const Matrix prefill =
                teacherForcedDecode(model, input, len, 1, options);
            const Matrix stepwise =
                teacherForcedDecode(model, input, 1, 1, options);
            EXPECT_TRUE(prefill.rowSlice(0, nan_row) ==
                        stepwise.rowSlice(0, nan_row))
                << "backend " << int(backend) << " panels " << panels;
            EXPECT_TRUE(std::isfinite(prefill(nan_row - 1, 0)));
        }
    }
}

TEST(IncrementalAttention, PageKernelMatchesMaterializedHistoryBitExact)
{
    // attentionFp32Panel reads the fp32 pages in place; it must equal
    // attentionPanelIncremental over keys()/values() bit for bit on every
    // arm, for any page size, head dim, panel shape and history length.
    // With `cancel`, each score's first and last products are huge and
    // cancel exactly (as cancelEnds in test_tensor.cc), so a score summed
    // with its channels regrouped — split accumulators, or a term moved
    // away from its place — no longer rounds to the same float.
    const KernelContext serial(Backend::Serial);
    const KernelContext threaded(Backend::Threaded, 3);
    const KernelContext packed(Backend::Packed, 3);
    int cases = 0;
    for (int head_dim : {8, 32, 64, 128}) {
        ModelConfig cfg = smallDecoder(2);
        cfg.nHeads = 4;
        cfg.dModel = cfg.nHeads * head_dim;
        for (int block_tokens : {1, 4, 32, 64, 256})
        for (bool cancel : {false, true}) {
            KVCacheConfig cc;
            cc.blockTokens = block_tokens;
            KVCache cache(cfg, cc);
            Rng rng(uint64_t(head_dim * 1000 + block_tokens));
            // 83 rows: not a multiple of any row, key or channel tile.
            const int len = 83;
            Matrix k = randomGaussian(len, 2 * head_dim, rng);
            const Matrix v = randomGaussian(len, 2 * head_dim, rng);
            for (int r = 0; r < len && cancel; ++r)
                for (int h = 0; h < 2; ++h)
                    k(r, h * head_dim + head_dim - 1) = k(r, h * head_dim);
            cache.append(0, k, v);
            cache.append(1, k, v);
            for (int heads : {1, 2}) {
                for (int tnew : {1, 3, 5, 32, 33}) {
                    for (int pos0 : {0, 17, len - tnew}) {
                        const int last = pos0 + tnew - 1;
                        Matrix q =
                            randomGaussian(heads * tnew, head_dim, rng);
                        for (int r = 0; r < q.rows() && cancel; ++r) {
                            q(r, 0) *= 1073741824.f;
                            q(r, head_dim - 1) = -q(r, 0);
                        }
                        const Matrix out = attentionFp32Panel(
                            q, heads, cache.pageView(1, 1, last), pos0);
                        const Matrix keys = cache.keys(1, 1, last);
                        const Matrix values = cache.values(1, 1, last);
                        for (const KernelContext *kc :
                             {&serial, &threaded, &packed}) {
                            const Matrix ref = heads == 1
                                ? attentionHeadIncremental(q, keys, values,
                                                           pos0, kc)
                                : attentionPanelIncremental(
                                      q, heads, keys, values, pos0, kc);
                            EXPECT_TRUE(out == ref)
                                << "dh " << head_dim << " blockTokens "
                                << block_tokens << " cancel " << cancel
                                << " heads " << heads
                                << " rows " << tnew << " pos0 " << pos0
                                << " backend " << int(kc->backend())
                                << " max |diff| " << maxAbsDiff(out, ref);
                            ++cases;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(4 * 5 * 2 * 2 * 5 * 3 * 3, cases);
}

TEST(DecodeEngine, QuantizedCacheTracksFp32AndImprovesWithSmallerChunks)
{
    setDefaultKernels(Backend::Serial);
    SyntheticModel model(smallDecoder(), 9);
    const Matrix input = model.sampleInput(40, 5);
    const Matrix ref = teacherForcedDecode(model, input, 8, 1,
                                           DecodeOptions{});

    auto quantized_error = [&](int row_chunk) {
        DecodeOptions options;
        options.cache.mode = KVCacheMode::TenderQuantized;
        options.cache.tender.rowChunk = row_chunk;
        const Matrix q = teacherForcedDecode(model, input, 8, 1, options);
        return nmse(ref, q);
    };

    const double e_small = quantized_error(4);
    const double e_large = quantized_error(32);
    EXPECT_LT(e_large, 2e-3);
    EXPECT_LT(e_small, e_large);
}

TEST(DecodeEngine, QuantizedCacheDecodeMatchesPrefillBitExact)
{
    // The quantized-KV contract (runtime/kv_cache.h): a row reads every
    // chunk before its own as frozen codes and its own chunk's rows in
    // fp32, and each chunk is quantized once, when its last row arrives.
    // A hidden row is then a function of its position alone: however the
    // sequence is split into a prefill and steps, every row must equal
    // the one-step prefill bit for bit — on every backend, both attention
    // arms, MQ panels on and off, GQA and chunk sizes alike.
    const int len = 27;
    const std::vector<std::pair<int, int>> splits = {
        {8, 1}, {1, 1}, {5, 3}, {7, 5}, {13, 9}};
    int cases = 0;
    for (int kv_heads : {4, 2}) {
        SyntheticModel model(smallDecoder(kv_heads), 29);
        const Matrix input = model.sampleInput(len, 6);
        for (Backend backend :
             {Backend::Serial, Backend::Threaded, Backend::Packed}) {
            const KernelContext kc(backend,
                                   backend == Backend::Serial ? 1 : 3);
            for (int row_chunk : {4, 8}) {
                for (bool fused : {false, true}) {
                    for (bool panels : {false, true}) {
                        DecodeOptions options;
                        options.kernels = &kc;
                        options.cache.mode = KVCacheMode::TenderQuantized;
                        options.cache.tender.rowChunk = row_chunk;
                        options.fusedQuantKv = fused;
                        options.mqAttentionPanels = panels;
                        const Matrix prefill = teacherForcedDecode(
                            model, input, len, 1, options);
                        for (const auto &[first, step] : splits) {
                            const Matrix dec = teacherForcedDecode(
                                model, input, first, step, options);
                            EXPECT_TRUE(dec == prefill)
                                << "kvHeads " << kv_heads << " backend "
                                << int(backend) << " rowChunk "
                                << row_chunk << " fused " << fused
                                << " panels " << panels << " split "
                                << first << "/" << step << " max |diff| "
                                << maxAbsDiff(dec, prefill);
                            ++cases;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(240, cases);
}

TEST(KVCacheDeathTest, LayerAppendOutOfStepDies)
{
    // Every layer appends the step's rows once: a later layer must catch
    // up to the cache length exactly, never trail it.
    const ModelConfig cfg = smallDecoder();
    Rng rng(3);
    const int cols = cfg.kvHeads * cfg.headDim();
    const Matrix k = randomGaussian(4, cols, rng);
    const Matrix v = randomGaussian(4, cols, rng);
    KVCache cache(cfg, KVCacheConfig{});
    cache.append(0, k, v);
    EXPECT_DEATH(cache.appendRows(1, k, v, 0, 2), "out of step");
}

TEST(KVCache, QuantizedStorageIsSmallerThanFp32)
{
    setDefaultKernels(Backend::Serial);
    SyntheticModel model(smallDecoder(), 13);
    const Matrix input = model.sampleInput(32, 2);

    DecodeOptions options;
    options.cache.mode = KVCacheMode::TenderQuantized;
    options.cache.tender.rowChunk = 16;
    DecodeEngine engine(model, options);
    engine.prefill(input);
    EXPECT_EQ(32, engine.position());
    const size_t quant = engine.cache().storedBytes();
    const size_t fp32 = engine.cache().fp32Bytes();
    EXPECT_LT(quant, fp32 / 2); // int8 codes + metadata vs 4 B/element
    EXPECT_GT(quant, 0u);

    DecodeEngine ref(model, DecodeOptions{});
    ref.prefill(input);
    EXPECT_EQ(ref.cache().storedBytes(), ref.cache().fp32Bytes());
}

TEST(BatchScheduler, OutputIndependentOfAdmissionOrderBatchAndWorkers)
{
    SyntheticModel model(smallDecoder(), 11);
    std::vector<GenRequest> requests = {
        {0, {1, 2, 3}, 4},
        {1, {7, 5, 9, 11, 2}, 3},
        {2, {4}, 6},
        {3, {8, 8, 8, 1}, 2},
        {4, {30, 31, 32, 33, 34, 35}, 5},
    };

    auto run = [&](bool reversed, int max_batch, Backend backend,
                   int workers) {
        KernelContext kc(backend, workers);
        SchedulerOptions options;
        options.maxBatch = max_batch;
        options.vocabSize = 64;
        options.decode.kernels = &kc;
        BatchScheduler scheduler(model, options);
        if (reversed)
            for (auto it = requests.rbegin(); it != requests.rend(); ++it)
                scheduler.submit(*it);
        else
            for (const GenRequest &r : requests)
                scheduler.submit(r);
        return scheduler.drain();
    };

    const auto baseline = run(false, 2, Backend::Serial, 1);
    ASSERT_EQ(requests.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(int(i), baseline[i].id);
        EXPECT_EQ(size_t(requests[i].maxNewTokens),
                  baseline[i].tokens.size());
    }

    for (const auto &result :
         {run(true, 2, Backend::Serial, 1), run(false, 4, Backend::Serial, 1),
          run(true, 8, Backend::Threaded, 1),
          run(false, 3, Backend::Threaded, 3),
          run(true, 5, Backend::Threaded, 4)}) {
        ASSERT_EQ(baseline.size(), result.size());
        for (size_t i = 0; i < baseline.size(); ++i) {
            EXPECT_EQ(baseline[i].id, result[i].id);
            EXPECT_EQ(baseline[i].tokens, result[i].tokens) << "id " << i;
        }
    }
}

TEST(BatchScheduler, QuantizedSchemeIsBatchIndependentToo)
{
    // A quantizing scheme's chunk scales are not row-local, so the
    // runtime must restart its chunks at every segment: a request's tokens
    // may not depend on which other requests shared its steps.
    SyntheticModel model(smallDecoder(), 19);
    std::vector<GenRequest> requests = {
        {0, {3, 1, 4, 1, 5}, 3}, {1, {2, 7}, 4}, {2, {6, 6, 6}, 2}};

    auto run = [&](bool reversed, int max_batch, Backend backend,
                   int workers) {
        KernelContext kc(backend, workers);
        TenderConfig tcfg;
        tcfg.rowChunk = 4;
        TenderScheme scheme(tcfg);
        scheme.setKernels(&kc);
        SchedulerOptions options;
        options.maxBatch = max_batch;
        options.vocabSize = 64;
        options.decode.kernels = &kc;
        options.decode.scheme = &scheme;
        options.decode.cache.mode = KVCacheMode::TenderQuantized;
        options.decode.cache.tender.rowChunk = 8;
        BatchScheduler scheduler(model, options);
        if (reversed)
            for (auto it = requests.rbegin(); it != requests.rend(); ++it)
                scheduler.submit(*it);
        else
            for (const GenRequest &r : requests)
                scheduler.submit(r);
        return scheduler.drain();
    };

    const auto baseline = run(false, 1, Backend::Serial, 1); // unbatched
    for (const auto &result :
         {run(false, 3, Backend::Serial, 1),
          run(true, 2, Backend::Serial, 1),
          run(true, 3, Backend::Threaded, 3)}) {
        ASSERT_EQ(baseline.size(), result.size());
        for (size_t i = 0; i < baseline.size(); ++i) {
            EXPECT_EQ(baseline[i].id, result[i].id);
            EXPECT_EQ(baseline[i].tokens, result[i].tokens) << "id " << i;
        }
    }
}

TEST(BatchScheduler, MatchesUnbatchedDecodeEngine)
{
    SyntheticModel model(smallDecoder(), 11);
    KernelContext kc(Backend::Serial);
    SchedulerOptions options;
    options.maxBatch = 3;
    options.vocabSize = 64;
    options.decode.kernels = &kc;

    std::vector<GenRequest> requests = {
        {0, {1, 2, 3}, 4}, {1, {9, 4}, 3}, {2, {5, 6, 7, 8}, 5}};
    BatchScheduler scheduler(model, options);
    for (const GenRequest &r : requests)
        scheduler.submit(r);
    const auto batched = scheduler.drain();

    // The same vocabulary the scheduler built internally.
    Vocab vocab(options.vocabSize, model.config().dModel,
                options.vocabSeed);
    for (size_t i = 0; i < requests.size(); ++i) {
        DecodeOptions dopt;
        dopt.kernels = &kc;
        DecodeEngine engine(model, dopt);
        std::vector<int> tokens;
        Matrix h = engine.prefill(vocab.embedAll(requests[i].promptTokens));
        int token = vocab.argmaxToken(h, h.rows() - 1, kc);
        tokens.push_back(token);
        while (int(tokens.size()) < requests[i].maxNewTokens) {
            h = engine.step(vocab.embed(token));
            token = vocab.argmaxToken(h, 0, kc);
            tokens.push_back(token);
        }
        EXPECT_EQ(tokens, batched[i].tokens) << "request " << i;
    }
}

TEST(BatchScheduler, ContinuousAdmissionRefillsSlots)
{
    SyntheticModel model(smallDecoder(), 17);
    KernelContext kc(Backend::Serial);
    SchedulerOptions options;
    options.maxBatch = 2;
    options.vocabSize = 32;
    options.decode.kernels = &kc;
    BatchScheduler scheduler(model, options);
    for (int id = 0; id < 5; ++id)
        scheduler.submit({id, {id + 1, id + 2}, 2 + id % 3});

    int max_active = 0;
    while (scheduler.step())
        max_active = std::max(max_active, scheduler.activeCount());
    EXPECT_EQ(2, max_active); // the cap binds...
    const auto &stats = scheduler.stats();
    EXPECT_EQ(5, stats.admitted);
    EXPECT_EQ(5, stats.retired);
    // ...and slots refill mid-run: admissions happen across many steps,
    // not one up-front batch (steps strictly exceed the longest request).
    EXPECT_GT(stats.steps, 4);
    EXPECT_GT(stats.prefillRows, 0);
}

TEST(QuantExecutor, PerOpPathRunsSingleStepInputs)
{
    setDefaultKernels(Backend::Serial);
    Rng rng(23);
    const Matrix x = randomGaussian(1, 32, rng); // one decode-step row
    const Matrix w = randomGaussian(32, 16, rng, 0.f, 0.05f);
    TenderConfig cfg;
    TenderScheme scheme(cfg);
    std::vector<GemmRecord> records;
    const Matrix y = quantizedOpGemm("q", 0, x, x, w, scheme,
                                     defaultKernels(), records);
    ASSERT_EQ(1u, records.size());
    EXPECT_EQ("q", records[0].op);
    EXPECT_GE(records[0].nmse, 0.0);
    EXPECT_LT(records[0].nmse, 1e-2);
    EXPECT_EQ(1, y.rows());
    EXPECT_EQ(16, y.cols());
}

TEST(DecodeEngine, TenderSchemeProjectionsStayAccurate)
{
    setDefaultKernels(Backend::Serial);
    SyntheticModel model(smallDecoder(), 29);
    const Matrix input = model.sampleInput(16, 4);
    const Matrix ref = teacherForcedDecode(model, input, 4, 1,
                                           DecodeOptions{});

    TenderConfig tcfg;
    tcfg.rowChunk = 4; // single-step inputs quantize as short chunks
    TenderScheme scheme(tcfg);
    DecodeOptions options;
    options.scheme = &scheme;
    options.cache.mode = KVCacheMode::TenderQuantized;
    options.cache.tender.rowChunk = 8;
    const Matrix q = teacherForcedDecode(model, input, 4, 1, options);
    EXPECT_LT(nmse(ref, q), 5e-2); // Tender decode tracks the fp32 runtime
}

TEST(DecodeRuntime, ForwardingSchemeServesTheSameTokensAsTender)
{
    // A scheme that overrides only matmul takes prepare()'s per-call
    // default; the runtime must serve it exactly as the prepared Tender
    // weights, through a full batch and through the single-request engine.
    SyntheticModel model(smallDecoder(), 37);
    KernelContext kc(Backend::Threaded, 2);
    TenderConfig tcfg;
    tcfg.rowChunk = 4;
    TenderScheme tender(tcfg);
    tender.setKernels(&kc);
    ForwardingScheme forwarding(tender);
    const std::vector<GenRequest> requests = mixedRequests(10);

    auto serve = [&](const GemmScheme &scheme) {
        SchedulerOptions options;
        options.maxBatch = 8;
        options.vocabSize = 64;
        options.decode.kernels = &kc;
        options.decode.scheme = &scheme;
        options.decode.cache.mode = KVCacheMode::TenderQuantized;
        options.decode.cache.tender.rowChunk = 8;
        BatchScheduler scheduler(model, options);
        for (const GenRequest &r : requests)
            scheduler.submit(r);
        return scheduler.drain();
    };
    const auto prepared = serve(tender);
    const auto forwarded = serve(forwarding);
    EXPECT_GT(forwarding.matmuls, 0);
    ASSERT_EQ(requests.size(), prepared.size());
    ASSERT_EQ(prepared.size(), forwarded.size());
    for (size_t i = 0; i < prepared.size(); ++i) {
        EXPECT_EQ(prepared[i].id, forwarded[i].id);
        EXPECT_EQ(prepared[i].tokens, forwarded[i].tokens) << "id " << i;
    }

    const Matrix input = model.sampleInput(20, 6);
    DecodeOptions options;
    options.kernels = &kc;
    options.cache.mode = KVCacheMode::TenderQuantized;
    options.cache.tender.rowChunk = 8;
    options.scheme = &tender;
    const Matrix a = teacherForcedDecode(model, input, 6, 1, options);
    options.scheme = &forwarding;
    const int64_t before = forwarding.matmuls;
    const Matrix b = teacherForcedDecode(model, input, 6, 1, options);
    EXPECT_GT(forwarding.matmuls, before);
    EXPECT_TRUE(a == b);
}

TEST(DecodeRuntime, WeightsArePreparedOncePerConstruction)
{
    SyntheticModel model(smallDecoder(), 41);
    KernelContext kc(Backend::Serial);
    TenderConfig tcfg;
    tcfg.rowChunk = 4;
    TenderScheme tender(tcfg);
    tender.setKernels(&kc);
    CountingScheme counting(tender);
    const int64_t per_build = 6 * model.config().nLayers;

    SchedulerOptions options;
    options.maxBatch = 4;
    options.vocabSize = 64;
    options.decode.kernels = &kc;
    options.decode.scheme = &counting;
    {
        BatchScheduler scheduler(model, options);
        EXPECT_EQ(per_build, counting.prepares);
        for (const GenRequest &r : mixedRequests(6))
            scheduler.submit(r);
        EXPECT_EQ(6u, scheduler.drain().size());
        EXPECT_EQ(per_build, counting.prepares); // never inside step()
    }

    DecodeOptions dopt;
    dopt.kernels = &kc;
    dopt.scheme = &counting;
    DecodeEngine engine(model, dopt);
    EXPECT_EQ(2 * per_build, counting.prepares);
    const Matrix input = model.sampleInput(6, 2);
    engine.prefill(input.rowSlice(0, 4));
    engine.step(input.rowSlice(4, 5));
    engine.step(input.rowSlice(5, 6));
    EXPECT_EQ(2 * per_build, counting.prepares);
    // Every product ran on the prepared weights, none per call.
    EXPECT_EQ(0, counting.matmuls);
}

TEST(Workload, BatchedDecodeAgreesWithDecodeShapes)
{
    const ModelConfig cfg = modelByName("OPT-6.7B");
    const Workload one = decodeWorkload(cfg, 2048);
    const Workload b1 = batchedDecodeWorkload(cfg, 2048, 1);
    ASSERT_EQ(one.blockOps.size(), b1.blockOps.size());
    for (size_t i = 0; i < one.blockOps.size(); ++i) {
        EXPECT_EQ(one.blockOps[i].m, b1.blockOps[i].m);
        EXPECT_EQ(one.blockOps[i].count, b1.blockOps[i].count);
    }
    EXPECT_EQ(one.blockMacs(), b1.blockMacs());

    const Workload b8 = batchedDecodeWorkload(cfg, 2048, 8);
    EXPECT_EQ(8 * one.blockMacs(), b8.blockMacs());
    for (const GemmOp &op : b8.blockOps) {
        if (op.actAct)
            EXPECT_EQ(1, op.m); // attention stays per request
        else
            EXPECT_EQ(8, op.m); // projections batch across requests
    }
}

} // namespace
} // namespace tender
