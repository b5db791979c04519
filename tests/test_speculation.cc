/**
 * @file
 * Tests for speculative decoding (docs/speculation.md): the prompt-lookup
 * drafter, the multi-row verification step, and the KVCache rejection
 * rollback.
 *
 * The load-bearing contract is bit-identity: a speculating request must
 * emit exactly the tokens of its non-speculating run — greedy and
 * sampled, fp32 / quantized / fused-quantized KV, alone or co-scheduled
 * with plain requests, across admission orders and worker counts, and
 * through a preemption/resume cycle. Speculation may only change how fast
 * tokens arrive, never which tokens.
 *
 * The rollback primitive gets its own numerics tests: truncateRows() on a
 * quantized cache must leave the open staging chunk bit-identical to a
 * cache that never saw the popped rows (envelope rescan + requantize),
 * and an fp32 truncate-then-reappend must equal a straight append.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "quant/granularity.h"
#include "runtime/batch_scheduler.h"
#include "runtime/draft.h"
#include "serve/serve_session.h"

namespace tender {
namespace {

ModelConfig
smallDecoder()
{
    ModelConfig cfg;
    cfg.name = "speculation-test";
    cfg.family = Family::Opt;
    cfg.dModel = 64;
    cfg.nHeads = 4;
    cfg.kvHeads = 2;
    cfg.nLayers = 2;
    cfg.dFfn = 128;
    cfg.decoder = true;
    return cfg;
}

/** Deterministic K/V projection rows: kvHeads * headDim wide. */
Matrix
kvRows(SyntheticModel &model, int rows, int seed)
{
    const ModelConfig &cfg = model.config();
    const int width = cfg.kvHeads * (cfg.dModel / cfg.nHeads);
    const Matrix src = model.sampleInput(rows, seed);
    Matrix out(rows, width);
    for (int r = 0; r < rows; ++r)
        std::copy(src.rowPtr(r), src.rowPtr(r) + width, out.rowPtr(r));
    return out;
}

/** Append the leading `rows` rows of (k, v) to every layer. */
void
appendAllLayers(KVCache &cache, const ModelConfig &cfg, const Matrix &k,
                const Matrix &v, int row0, int rows)
{
    for (int l = 0; l < cfg.nLayers; ++l)
        cache.appendRows(l, k, v, row0, rows);
}

void
expectCachesEqual(const KVCache &a, const KVCache &b, const ModelConfig &cfg,
                  const char *what)
{
    ASSERT_EQ(a.length(), b.length()) << what;
    for (int l = 0; l < cfg.nLayers; ++l) {
        for (int h = 0; h < cfg.kvHeads; ++h) {
            EXPECT_EQ(maxAbsDiff(a.keys(l, h), b.keys(l, h)), 0.f)
                << what << " keys layer " << l << " head " << h;
            EXPECT_EQ(maxAbsDiff(a.values(l, h), b.values(l, h)), 0.f)
                << what << " values layer " << l << " head " << h;
        }
    }
}

// ---------------------------------------------------------------------
// truncateRows numerics
// ---------------------------------------------------------------------

TEST(TruncateRows, Fp32TruncateThenReappendEqualsStraightAppend)
{
    const ModelConfig cfg = smallDecoder();
    SyntheticModel model(cfg, 11);
    KVCacheConfig cc;
    cc.blockTokens = 4;

    const Matrix k = kvRows(model, 10, 21);
    const Matrix v = kvRows(model, 10, 22);
    const Matrix k2 = kvRows(model, 10, 23);
    const Matrix v2 = kvRows(model, 10, 24);

    // Straight-append reference: 6 kept rows, then 3 replacement rows.
    KVCache ref(cfg, cc);
    appendAllLayers(ref, cfg, k, v, 0, 6);
    appendAllLayers(ref, cfg, k2, v2, 0, 3);

    // Test cache overshoots by 4 rows (spanning a 4-token page boundary),
    // rolls them back, then appends the replacements.
    KVCache cache(cfg, cc);
    appendAllLayers(cache, cfg, k, v, 0, 10);
    ASSERT_EQ(10, cache.length());
    cache.truncateRows(4);
    ASSERT_EQ(6, cache.length());
    appendAllLayers(cache, cfg, k2, v2, 0, 3);

    expectCachesEqual(cache, ref, cfg, "fp32 truncate/reappend");
}

TEST(TruncateRows, QuantizedEnvelopeRebuildMatchesNeverAppended)
{
    const ModelConfig cfg = smallDecoder();
    SyntheticModel model(cfg, 13);
    KVCacheConfig cc;
    cc.mode = KVCacheMode::TenderQuantized;
    cc.tender.rowChunk = 4;

    const Matrix k = kvRows(model, 12, 31);
    const Matrix v = kvRows(model, 12, 32);
    const Matrix k2 = kvRows(model, 12, 33);
    const Matrix v2 = kvRows(model, 12, 34);

    // 5 rows: chunk 0 frozen (rows 0-3), row 4 staged in the open chunk.
    // The reference never sees the rejected rows.
    KVCache ref(cfg, cc);
    appendAllLayers(ref, cfg, k, v, 0, 5);

    // The test cache stages extra rows (5+2 = 7 still leaves the chunk
    // open; 8 would freeze it) and rolls them back — exercise both a
    // 1-row and a 2-row rollback against fresh references.
    for (int extra = 1; extra <= 2; ++extra) {
        KVCache cache(cfg, cc);
        appendAllLayers(cache, cfg, k, v, 0, 5 + extra);
        ASSERT_EQ(5 + extra, cache.length());
        cache.truncateRows(extra);
        ASSERT_EQ(5, cache.length());
        expectCachesEqual(cache, ref, cfg, "quantized rollback");

        // The caches must also agree AFTER more appends: the rescanned
        // envelope and requantized open chunk must behave exactly like a
        // never-overshot staging chunk when later rows widen it.
        KVCache ref2(cfg, cc);
        appendAllLayers(ref2, cfg, k, v, 0, 5);
        appendAllLayers(ref2, cfg, k2, v2, 0, 5);
        appendAllLayers(cache, cfg, k2, v2, 0, 5);
        expectCachesEqual(cache, ref2, cfg, "quantized rollback + append");
    }
}

TEST(TruncateRows, QuantizedTruncateToChunkBoundary)
{
    const ModelConfig cfg = smallDecoder();
    SyntheticModel model(cfg, 17);
    KVCacheConfig cc;
    cc.mode = KVCacheMode::TenderQuantized;
    cc.tender.rowChunk = 4;

    const Matrix k = kvRows(model, 8, 41);
    const Matrix v = kvRows(model, 8, 42);

    // Pop the entire open chunk (3 staged rows): the cache ends exactly
    // at a frozen-chunk boundary with an empty staging buffer.
    KVCache cache(cfg, cc);
    appendAllLayers(cache, cfg, k, v, 0, 7);
    cache.truncateRows(3);
    ASSERT_EQ(4, cache.length());

    KVCache ref(cfg, cc);
    appendAllLayers(ref, cfg, k, v, 0, 4);
    expectCachesEqual(cache, ref, cfg, "truncate to boundary");

    // And refilling the chunk matches a straight append.
    const Matrix k2 = kvRows(model, 4, 43);
    const Matrix v2 = kvRows(model, 4, 44);
    appendAllLayers(cache, cfg, k2, v2, 0, 4);
    appendAllLayers(ref, cfg, k2, v2, 0, 4);
    expectCachesEqual(cache, ref, cfg, "refill after boundary truncate");
}

// ---------------------------------------------------------------------
// Drafters
// ---------------------------------------------------------------------

TEST(Drafter, PromptLookupFindsRepeatedSuffix)
{
    PromptLookupDrafter d(3);
    // ... 5 6 7 | 8 9 | 5 6 7  -> the trigram 5 6 7 recurs; the drafter
    // must propose the continuation after its earlier occurrence (8 9,
    // then on through the copied history while the budget lasts).
    const std::vector<int> tokens = {5, 6, 7, 8, 9, 5, 6, 7};
    EXPECT_EQ((std::vector<int>{8, 9, 5, 6}), d.draft(tokens, 4));
    EXPECT_EQ((std::vector<int>{8}), d.draft(tokens, 1));
    // No recurring suffix at any n-gram length: no draft, never a guess.
    EXPECT_TRUE(d.draft({1, 2, 3, 4}, 4).empty());
    // The MOST RECENT earlier occurrence wins when several match.
    const std::vector<int> twice = {1, 2, 9, 1, 2, 5, 1, 2};
    EXPECT_EQ((std::vector<int>{5}), d.draft(twice, 1));
}

// ---------------------------------------------------------------------
// Scheduler-level bit-identity
// ---------------------------------------------------------------------

SchedulerOptions
schedulerOptions(const KernelContext *kc, bool quantized, bool fused)
{
    SchedulerOptions o;
    o.vocabSize = 48;
    o.decode.kernels = kc;
    o.decode.cache.blockTokens = 8;
    if (quantized) {
        o.decode.cache.mode = KVCacheMode::TenderQuantized;
        o.decode.cache.tender.rowChunk = 8;
        o.decode.fusedQuantKv = fused;
    }
    return o;
}

/** A prompt whose greedy continuation the prompt-lookup drafter can latch
 *  onto (greedy synthetic decode settles into cycles quickly). */
GenRequest
specRequest(int id, DrafterKind drafter, int max_draft = 4)
{
    GenRequest r;
    r.id = id;
    r.promptTokens = {7, 11, 3, 7, 11, 3, 7, 11};
    r.maxNewTokens = 24;
    r.speculation.drafter = drafter;
    r.speculation.maxDraft = max_draft;
    return r;
}

void
checkSpecMatchesPlain(bool quantized, bool fused, DrafterKind kind)
{
    SyntheticModel model(smallDecoder(), 29);
    KernelContext kc(Backend::Serial);
    const SchedulerOptions options = schedulerOptions(&kc, quantized, fused);

    GenRequest plain = specRequest(0, DrafterKind::None);
    BatchScheduler ref(model, options);
    ref.submit(plain);
    const std::vector<GenResult> ref_out = ref.drain();
    ASSERT_EQ(1u, ref_out.size());
    ASSERT_EQ(24u, ref_out[0].tokens.size());

    BatchScheduler spec(model, options);
    spec.submit(specRequest(0, kind));
    const std::vector<GenResult> out = spec.drain();
    ASSERT_EQ(1u, out.size());
    EXPECT_EQ(ref_out[0].tokens, out[0].tokens)
        << "speculation changed tokens (quantized=" << quantized
        << " fused=" << fused << " drafter=" << drafterKindName(kind)
        << ")";

    const SchedulerStats &st = spec.stats();
    EXPECT_GT(st.specSteps, 0);
    EXPECT_GT(st.draftedTokens, 0);
    EXPECT_EQ(st.draftedTokens, out[0].draftedTokens);
    EXPECT_EQ(st.acceptedDraftTokens, out[0].acceptedDraftTokens);
    EXPECT_LE(out[0].acceptedDraftTokens, out[0].draftedTokens);
    // Every accepted draft is a decode step skipped.
    EXPECT_EQ(int64_t(out[0].tokens.size()),
              out[0].steps + out[0].acceptedDraftTokens);
    // The reference run spends one step per token; the speculative run
    // must not spend more.
    EXPECT_LE(out[0].steps, ref_out[0].steps);
    // No speculation stats on the plain run.
    EXPECT_EQ(0, ref.stats().specSteps);
    EXPECT_EQ(0, ref_out[0].draftedTokens);
}

TEST(Speculation, GreedyBitIdenticalFp32PromptLookup)
{
    checkSpecMatchesPlain(false, false, DrafterKind::PromptLookup);
}

TEST(Speculation, GreedyBitIdenticalQuantizedPromptLookup)
{
    checkSpecMatchesPlain(true, false, DrafterKind::PromptLookup);
}

TEST(Speculation, GreedyBitIdenticalQuantizedFusedPromptLookup)
{
    checkSpecMatchesPlain(true, true, DrafterKind::PromptLookup);
}

TEST(Speculation, RepetitivePromptAcceptsDrafts)
{
    // The speedup claim needs acceptance, not just verification: on a
    // prompt whose greedy continuation cycles, prompt lookup must land
    // accepted drafts (if this fails, the bench scenario measures
    // nothing).
    SyntheticModel model(smallDecoder(), 29);
    KernelContext kc(Backend::Serial);
    BatchScheduler s(model, schedulerOptions(&kc, false, false));
    s.submit(specRequest(0, DrafterKind::PromptLookup));
    const std::vector<GenResult> out = s.drain();
    ASSERT_EQ(1u, out.size());
    EXPECT_GT(out[0].acceptedDraftTokens, 0);
}

TEST(Speculation, MixedBatchIsOrderAndBackendIndependent)
{
    SyntheticModel model(smallDecoder(), 37);
    KernelContext serial(Backend::Serial);

    // Mixed traffic: speculating (different k) and plain requests sharing
    // the batch.
    std::vector<GenRequest> requests;
    requests.push_back(specRequest(0, DrafterKind::PromptLookup, 4));
    requests.push_back(specRequest(1, DrafterKind::None));
    requests.push_back(specRequest(2, DrafterKind::PromptLookup, 2));
    requests.push_back(specRequest(3, DrafterKind::PromptLookup, 8));
    requests[3].promptTokens = {1, 2, 1, 2, 1, 2, 1, 2};

    const auto run = [&](const std::vector<GenRequest> &reqs,
                         const KernelContext &kc, int max_batch) {
        SchedulerOptions o = schedulerOptions(&kc, true, true);
        o.maxBatch = max_batch;
        BatchScheduler s(model, o);
        for (const GenRequest &r : reqs)
            s.submit(r);
        return s.drain();
    };

    const auto baseline = run(requests, serial, 4);
    ASSERT_EQ(4u, baseline.size());

    // Reversed submission order, serialized batch (maxBatch = 1), and a
    // threaded backend must all reproduce the same per-id tokens.
    std::vector<GenRequest> reversed(requests.rbegin(), requests.rend());
    const auto rev = run(reversed, serial, 4);
    const auto solo = run(requests, serial, 1);
    KernelContext threaded(Backend::Threaded, 3);
    const auto wide = run(requests, threaded, 4);
    for (size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(baseline[i].tokens, rev[i].tokens) << "id " << i;
        EXPECT_EQ(baseline[i].tokens, solo[i].tokens) << "id " << i;
        EXPECT_EQ(baseline[i].tokens, wide[i].tokens) << "id " << i;
        EXPECT_EQ(baseline[i].draftedTokens, rev[i].draftedTokens);
        EXPECT_EQ(baseline[i].acceptedDraftTokens,
                  rev[i].acceptedDraftTokens);
    }
}

// ---------------------------------------------------------------------
// Serving layer: sampled verification, metrics, preemption interaction
// ---------------------------------------------------------------------

ServeSessionOptions
serveOptions(const KernelContext *kc, bool quantized)
{
    ServeSessionOptions o;
    o.scheduler = schedulerOptions(kc, quantized, quantized);
    return o;
}

TEST(Speculation, SampledDecodeBitIdentical)
{
    SyntheticModel model(smallDecoder(), 41);
    KernelContext kc(Backend::Serial);

    ServeRequest req;
    req.promptTokens = {9, 4, 9, 4, 9, 4};
    req.maxNewTokens = 20;
    // Sampled, not greedy: acceptance must compare against the seeded
    // sampler's token at each position, not the argmax.
    req.sampling = {0.7f, 8, 0.9f, 4242};

    ServeSession ref(model, serveOptions(&kc, false));
    const int rid = ref.submit(req);
    ref.drain();
    ASSERT_EQ(20u, ref.result(rid)->tokens.size());

    ServeRequest spec = req;
    spec.speculation.drafter = DrafterKind::PromptLookup;
    spec.speculation.maxDraft = 4;
    ServeSession session(model, serveOptions(&kc, false));
    const int sid = session.submit(spec);
    session.drain();

    EXPECT_EQ(ref.result(rid)->tokens, session.result(sid)->tokens);
    const RequestMetrics &m = session.result(sid)->metrics;
    EXPECT_GT(m.draftedTokens, 0);
    EXPECT_LE(m.acceptedDraftTokens, m.draftedTokens);
    EXPECT_EQ(0, ref.result(rid)->metrics.draftedTokens);

    const LatencyStats ls = session.latency(Priority::Batch);
    EXPECT_EQ(m.draftedTokens, ls.draftedTokens);
    EXPECT_EQ(m.acceptedDraftTokens, ls.acceptedDraftTokens);
}

TEST(Speculation, SchemeRejectedAtTheFrontDoor)
{
    SyntheticModel model(smallDecoder(), 43);
    KernelContext kc(Backend::Serial);

    ServeSessionOptions o = serveOptions(&kc, false);
    static UniformScheme scheme(8, Granularity::PerTensor);
    o.scheduler.decode.scheme = &scheme;

    ServeSession session(model, o);
    ServeRequest req;
    req.promptTokens = {1, 2, 3};
    req.maxNewTokens = 4;
    req.speculation.drafter = DrafterKind::PromptLookup;
    const int id = session.submit(req);
    EXPECT_EQ(RequestState::Failed, session.state(id));
    EXPECT_EQ(FailureReason::InvalidRequest, session.result(id)->failure);
}

TEST(Speculation, PreemptedSpeculatorResumesBitExact)
{
    SyntheticModel model(smallDecoder(), 47);
    KernelContext kc(Backend::Serial);

    ServeSessionOptions options = serveOptions(&kc, true);
    options.scheduler.maxBatch = 1;
    options.scheduler.prefixCache = true;
    options.scheduler.maxPreemptions = 2;
    options.scheduler.decode.cache.blockTokens = 8;

    ServeRequest victim;
    victim.promptTokens = {7, 11, 3, 7, 11, 3, 7, 11};
    victim.maxNewTokens = 16;
    victim.speculation.drafter = DrafterKind::PromptLookup;
    victim.speculation.maxDraft = 4;
    victim.priority = Priority::Batch;

    ServeRequest chat;
    chat.promptTokens = {1, 2, 3};
    chat.maxNewTokens = 3;
    chat.priority = Priority::Interactive;

    // Uninterrupted reference.
    ServeSessionOptions solo = options;
    solo.scheduler.maxPreemptions = 0;
    ServeSession refSession(model, solo);
    const int refId = refSession.submit(victim);
    refSession.drain();
    const std::vector<int> ref = refSession.result(refId)->tokens;
    ASSERT_EQ(16u, ref.size());

    ServeSession session(model, options);
    const int vid = session.submit(victim);
    // Run a few steps so the victim is mid-decode with drafts staged
    // between steps, then force the freeze.
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(session.step());
    ASSERT_EQ(RequestState::Decoding, session.state(vid));
    const int cid = session.submit(chat);
    session.step();
    EXPECT_EQ(RequestState::Preempted, session.state(vid));

    session.drain();
    // The parked entry held only verified rows (staged-but-unfed drafts
    // died with the freeze), so the resume replays a clean prefix and
    // the tokens come out bit-identical.
    EXPECT_EQ(ref, session.result(vid)->tokens);
    EXPECT_EQ(1, session.result(vid)->metrics.preemptions);
    EXPECT_EQ(3u, session.result(cid)->tokens.size());
    EXPECT_GT(session.result(vid)->metrics.draftedTokens, 0);

    // Park accounting settled; nothing leaked.
    const BlockPoolStats done = session.poolStats();
    EXPECT_EQ(0u, done.parkedBlocks);
    EXPECT_EQ(done.parks, done.unparks);
    EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());
}

} // namespace
} // namespace tender
