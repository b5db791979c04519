/**
 * @file
 * Tests for mid-decode preemption (freeze / park / resume over COW
 * pages): a preempted-and-resumed request must generate exactly the
 * tokens it would have uninterrupted — fp32, quantized, and fused-
 * quantized KV — with the pool's park accounting returning to zero and
 * no block leaked across preempt/resume/cancel interleavings, the
 * anti-thrash bound capping how often one request can be frozen, and
 * preemption firing both on slot pressure and on pool pressure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "model/workload.h"
#include "runtime/batch_scheduler.h"
#include "serve/serve_session.h"

namespace tender {
namespace {

ModelConfig
smallDecoder()
{
    ModelConfig cfg;
    cfg.name = "preemption-test";
    cfg.family = Family::Opt;
    cfg.dModel = 64;
    cfg.nHeads = 4;
    cfg.kvHeads = 4;
    cfg.nLayers = 2;
    cfg.dFfn = 128;
    cfg.decoder = true;
    return cfg;
}

ServeSessionOptions
preemptOptions(KernelContext *kc, bool quantized, bool fused)
{
    ServeSessionOptions o;
    o.scheduler.maxBatch = 1;
    o.scheduler.vocabSize = 48;
    o.scheduler.decode.kernels = kc;
    o.scheduler.prefixCache = true;
    o.scheduler.maxPreemptions = 2;
    // Small blocks so a handful of decoded tokens already spans complete
    // (parkable) blocks.
    o.scheduler.decode.cache.blockTokens = 4;
    if (quantized) {
        o.scheduler.decode.cache.mode = KVCacheMode::TenderQuantized;
        o.scheduler.decode.cache.tender.rowChunk = 4;
        o.scheduler.decode.fusedQuantKv = fused;
    }
    return o;
}

std::vector<int>
runSolo(SyntheticModel &model, ServeSessionOptions options,
        const ServeRequest &request)
{
    options.scheduler.maxPreemptions = 0; // the uninterrupted reference
    ServeSession session(model, options);
    const int id = session.submit(request);
    session.drain();
    return session.result(id)->tokens;
}

/** Preempt a sampled Batch request for an Interactive one and check the
 *  resumed generation is bit-identical to the uninterrupted run, with
 *  the park accounting fully settled. */
void
checkPreemptResumeBitExact(bool quantized, bool fused)
{
    SyntheticModel model(smallDecoder(), 61);
    KernelContext kc(Backend::Serial);

    ServeRequest victim;
    victim.promptTokens = {7, 8, 9, 10};
    victim.maxNewTokens = 12;
    // Sampled, not greedy: the resume must also restart the per-position
    // sampling stream at the right position.
    victim.sampling = {0.8f, 12, 0.95f, 77};
    victim.priority = Priority::Batch;

    ServeRequest chat;
    chat.promptTokens = {1, 2, 3};
    chat.maxNewTokens = 4;
    chat.priority = Priority::Interactive;

    const ServeSessionOptions options = preemptOptions(&kc, quantized, fused);
    const std::vector<int> victim_ref = runSolo(model, options, victim);
    const std::vector<int> chat_ref = runSolo(model, options, chat);
    ASSERT_EQ(12u, victim_ref.size());
    ASSERT_EQ(4u, chat_ref.size());

    ServeSession session(model, options);
    const int vid = session.submit(victim);
    // Prefill + five decode steps: 9 cache rows, i.e. two complete
    // blocks — one more than the prompt entry already published, so the
    // freeze must park new blocks beyond the prefill's insert.
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(session.step());
    ASSERT_EQ(RequestState::Decoding, session.state(vid));

    // The batch slot is taken (maxBatch = 1), so admitting the
    // Interactive request requires freezing the victim.
    const int cid = session.submit(chat);
    ASSERT_TRUE(session.step());
    EXPECT_EQ(RequestState::Preempted, session.state(vid));
    EXPECT_NE(RequestState::Queued, session.state(cid));
    const BlockPoolStats mid = session.poolStats();
    EXPECT_GT(mid.parkedBlocks, 0u);
    EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());

    session.drain();
    EXPECT_EQ(victim_ref, session.result(vid)->tokens);
    EXPECT_EQ(chat_ref, session.result(cid)->tokens);
    EXPECT_EQ(1, session.result(vid)->metrics.preemptions);
    EXPECT_GT(session.result(vid)->metrics.parkedUs, 0.0);
    EXPECT_EQ(0, session.result(cid)->metrics.preemptions);
    EXPECT_EQ(1, session.latency(Priority::Batch).preemptions);

    const SchedulerStats &st = session.scheduler().stats();
    EXPECT_EQ(1, int(st.preemptions));
    EXPECT_EQ(1, int(st.resumes));
    EXPECT_GT(int(st.resumedRowsReused), 0);

    // Park accounting settled; no block or reservation leaked.
    const BlockPoolStats done = session.poolStats();
    EXPECT_EQ(0u, done.parkedBlocks);
    EXPECT_EQ(done.parks, done.unparks);
    EXPECT_EQ(0u, done.reservedBlocks);
    session.scheduler().prefixCache()->clear();
    EXPECT_EQ(0u, session.poolStats().allocatedBlocks);
    EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());
}

TEST(Preemption, ResumeIsBitExactFp32)
{
    checkPreemptResumeBitExact(false, false);
}

TEST(Preemption, ResumeIsBitExactQuantized)
{
    checkPreemptResumeBitExact(true, false);
}

TEST(Preemption, ResumeIsBitExactQuantizedFused)
{
    checkPreemptResumeBitExact(true, true);
}

TEST(Preemption, PoolPressurePreemptsWhenSlotsAreFree)
{
    SyntheticModel model(smallDecoder(), 79);
    KernelContext kc(Backend::Serial);

    ServeSessionOptions options;
    options.scheduler.maxBatch = 2;
    options.scheduler.vocabSize = 48;
    options.scheduler.decode.kernels = &kc;
    options.scheduler.prefixCache = true;
    options.scheduler.maxPreemptions = 2;
    options.scheduler.decode.cache.blockTokens = 4;

    ServeRequest victim;
    victim.promptTokens = {5, 6, 7, 8};
    victim.maxNewTokens = 16;
    victim.priority = Priority::Batch;
    ServeRequest chat;
    chat.promptTokens = {9, 10, 11};
    chat.maxNewTokens = 2;
    chat.priority = Priority::Interactive;

    // One free batch slot, but a pool one block short of holding both
    // worst cases: only preemption (parking the victim's frozen blocks
    // and releasing the rest) lets the Interactive request reserve.
    const size_t worst_v = KVCache::blocksForTokens(
        model.config(), options.scheduler.decode.cache,
        int(victim.promptTokens.size()) + victim.maxNewTokens - 1);
    const size_t worst_i = KVCache::blocksForTokens(
        model.config(), options.scheduler.decode.cache,
        int(chat.promptTokens.size()) + chat.maxNewTokens - 1);
    options.scheduler.kvPoolBlocks = worst_v + worst_i - 1;

    const std::vector<int> victim_ref = runSolo(model, options, victim);
    const std::vector<int> chat_ref = runSolo(model, options, chat);

    ServeSession session(model, options);
    const int vid = session.submit(victim);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(session.step());
    const int cid = session.submit(chat);
    ASSERT_TRUE(session.step());
    EXPECT_EQ(RequestState::Preempted, session.state(vid));

    session.drain();
    EXPECT_EQ(victim_ref, session.result(vid)->tokens);
    EXPECT_EQ(chat_ref, session.result(cid)->tokens);
    EXPECT_EQ(1, int(session.scheduler().stats().preemptions));
    EXPECT_EQ(1, int(session.scheduler().stats().resumes));

    const BlockPoolStats done = session.poolStats();
    EXPECT_EQ(0u, done.parkedBlocks);
    EXPECT_EQ(0u, done.reservedBlocks);
    session.scheduler().prefixCache()->clear();
    EXPECT_EQ(0u, session.poolStats().allocatedBlocks);
    EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());
}

TEST(Preemption, AntiThrashBoundCapsFreezesPerRequest)
{
    SyntheticModel model(smallDecoder(), 71);
    KernelContext kc(Backend::Serial);
    ServeSessionOptions options = preemptOptions(&kc, false, false);
    options.scheduler.maxPreemptions = 1;

    ServeRequest victim;
    victim.promptTokens = {3, 4, 5, 6};
    victim.maxNewTokens = 10;
    victim.priority = Priority::Batch;
    ServeRequest chat;
    chat.promptTokens = {1, 2};
    chat.maxNewTokens = 2;
    chat.priority = Priority::Interactive;

    const std::vector<int> victim_ref = runSolo(model, options, victim);

    ServeSession session(model, options);
    const int vid = session.submit(victim);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(session.step());
    const int a = session.submit(chat);
    ASSERT_TRUE(session.step());
    ASSERT_EQ(RequestState::Preempted, session.state(vid));

    // Let the first Interactive request finish and the victim resume.
    int guard = 0;
    while (session.state(vid) != RequestState::Decoding && guard++ < 64)
        session.step();
    ASSERT_EQ(RequestState::Decoding, session.state(vid));
    ASSERT_EQ(RequestState::Finished, session.state(a));

    // A second Interactive arrival may NOT freeze the victim again: its
    // preemption budget (maxPreemptions = 1) is spent, so the newcomer
    // waits for the slot instead.
    const int b = session.submit(chat);
    ASSERT_TRUE(session.step());
    EXPECT_EQ(RequestState::Queued, session.state(b));
    EXPECT_EQ(RequestState::Decoding, session.state(vid));

    session.drain();
    EXPECT_EQ(RequestState::Finished, session.state(b));
    EXPECT_EQ(victim_ref, session.result(vid)->tokens);
    EXPECT_EQ(1, session.result(vid)->metrics.preemptions);
    EXPECT_EQ(1, int(session.scheduler().stats().preemptions));
    EXPECT_EQ(0u, session.poolStats().parkedBlocks);
    EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());
}

TEST(Preemption, NoRefreezeBeforeFirstTokenAfterResume)
{
    // Regression: a resumed request is no preemption victim until it has
    // read out a token since re-admission — ServeSession holds it in
    // Prefill until then, and Prefill -> Preempted is illegal. Five chats
    // arrive at once: the first preempts the victim and overtakes it, the
    // next three overtake it too, and the overtake bound (4) then
    // re-admits the victim ahead of the fifth, whose preemption pass in
    // that same admission must pass the still-prefilling victim over.
    // Resume is one prefill segment that reads out the next token, so the
    // victim is Decoding right after that step, the second freeze follows
    // one step later, and the tokens stay bit-exact.
    for (bool quantized : {false, true}) {
        SyntheticModel model(smallDecoder(), 73);
        KernelContext kc(Backend::Serial);
        const ServeSessionOptions options =
            preemptOptions(&kc, quantized, false);

        ServeRequest victim;
        victim.promptTokens = {5, 6, 7, 8};
        victim.maxNewTokens = 14;
        victim.priority = Priority::Batch;
        ServeRequest chat;
        chat.promptTokens = {1, 2, 3};
        chat.maxNewTokens = 1;
        chat.priority = Priority::Interactive;
        const std::vector<int> victim_ref = runSolo(model, options, victim);

        ServeSession session(model, options);
        const int vid = session.submit(victim);
        // Prefill + six decode steps: 7 tokens, 10 cache rows, of which
        // the freeze parks two complete blocks (8 rows). Resume then
        // prefills rows 8..10 as one segment.
        for (int i = 0; i < 7; ++i)
            ASSERT_TRUE(session.step());
        std::vector<int> chats;
        for (int i = 0; i < 5; ++i)
            chats.push_back(session.submit(chat));
        for (int i = 0; i < 4; ++i) {
            ASSERT_TRUE(session.step());
            ASSERT_EQ(RequestState::Preempted, session.state(vid));
            ASSERT_EQ(RequestState::Finished, session.state(chats[size_t(i)]));
        }
        // Re-admitted ahead of the fifth chat and not frozen again in the
        // same admission: its resume step read out its next token.
        ASSERT_TRUE(session.step());
        ASSERT_EQ(RequestState::Decoding, session.state(vid));
        ASSERT_EQ(RequestState::Queued, session.state(chats[4]));
        ASSERT_TRUE(session.step());
        EXPECT_EQ(RequestState::Preempted, session.state(vid));
        EXPECT_EQ(RequestState::Finished, session.state(chats[4]));

        session.drain();
        EXPECT_EQ(victim_ref, session.result(vid)->tokens)
            << "quantized=" << quantized;
        EXPECT_EQ(2, session.result(vid)->metrics.preemptions);
        EXPECT_EQ(0u, session.poolStats().parkedBlocks);
        EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());
    }
}

TEST(Preemption, CancelWhilePreemptedSettlesAccountingAndKeepsTokens)
{
    SyntheticModel model(smallDecoder(), 73);
    KernelContext kc(Backend::Serial);
    const ServeSessionOptions options = preemptOptions(&kc, false, false);

    ServeRequest victim;
    victim.promptTokens = {11, 12, 13, 14};
    victim.maxNewTokens = 12;
    victim.priority = Priority::Batch;
    ServeRequest chat;
    chat.promptTokens = {1, 2, 3};
    chat.maxNewTokens = 3;
    chat.priority = Priority::Interactive;

    const std::vector<int> victim_ref = runSolo(model, options, victim);

    ServeSession session(model, options);
    const int vid = session.submit(victim);
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(session.step());
    const int cid = session.submit(chat);
    ASSERT_TRUE(session.step());
    ASSERT_EQ(RequestState::Preempted, session.state(vid));
    ASSERT_GT(session.poolStats().parkedBlocks, 0u);

    // Cancelling a preempted request settles its park accounting and
    // keeps what it decoded — a cancellation cannot rewrite history.
    EXPECT_TRUE(session.cancel(vid));
    EXPECT_FALSE(session.cancel(vid)); // already terminal
    EXPECT_EQ(RequestState::Cancelled, session.state(vid));
    EXPECT_EQ(0u, session.poolStats().parkedBlocks);
    const ServeResult *rv = session.result(vid);
    ASSERT_NE(nullptr, rv);
    EXPECT_EQ(FinishReason::Cancelled, rv->reason);
    ASSERT_EQ(6u, rv->tokens.size());
    EXPECT_TRUE(std::equal(rv->tokens.begin(), rv->tokens.end(),
                           victim_ref.begin()));

    session.drain();
    EXPECT_EQ(RequestState::Finished, session.state(cid));
    const BlockPoolStats done = session.poolStats();
    EXPECT_EQ(done.parks, done.unparks);
    EXPECT_EQ(0u, done.reservedBlocks);
    session.scheduler().prefixCache()->clear();
    EXPECT_EQ(0u, session.poolStats().allocatedBlocks);
    EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());
}

TEST(Preemption, OnlyPreemptedQueueEntriesSettleParkAccounting)
{
    SyntheticModel model(smallDecoder(), 79);
    KernelContext kc(Backend::Serial);
    const ServeSessionOptions options = preemptOptions(&kc, false, false);

    ServeRequest victim;
    victim.promptTokens = {11, 12, 13, 14};
    victim.maxNewTokens = 12;
    victim.priority = Priority::Batch;
    ServeRequest waiting = victim;
    waiting.promptTokens = {21, 22, 23};
    ServeRequest doomed = victim;
    doomed.promptTokens = {31, 32, 33};
    doomed.deadlineUs = 1; // shed while it waits
    ServeRequest chat;
    chat.promptTokens = {1, 2, 3};
    chat.maxNewTokens = 3;
    chat.priority = Priority::Interactive;

    // The victim holds the only slot (maxBatch = 1), so the other two wait
    // behind it: one is deadline-shed, the other cancelled, and neither
    // was ever preempted, so neither touches the park accounting.
    ServeSession session(model, options);
    const int vid = session.submit(victim);
    const int wid = session.submit(waiting);
    const int did = session.submit(doomed);
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(session.step());
    ASSERT_EQ(RequestState::Failed, session.state(did));
    EXPECT_EQ(FailureReason::DeadlineExceeded,
              session.result(did)->failure);
    ASSERT_EQ(RequestState::Queued, session.state(wid));
    EXPECT_TRUE(session.cancel(wid));
    EXPECT_EQ(0, session.poolStats().parks);
    EXPECT_EQ(0, session.poolStats().unparks);

    // A preempted request cancelled before resume still balances.
    const int cid = session.submit(chat);
    ASSERT_TRUE(session.step());
    ASSERT_EQ(RequestState::Preempted, session.state(vid));
    EXPECT_TRUE(session.cancel(vid));
    session.drain();
    EXPECT_EQ(RequestState::Finished, session.state(cid));
    const BlockPoolStats done = session.poolStats();
    EXPECT_EQ(1, done.parks);
    EXPECT_EQ(1, done.unparks);
    EXPECT_EQ(0u, done.parkedBlocks);
    session.scheduler().prefixCache()->clear();
    EXPECT_EQ(0u, session.poolStats().allocatedBlocks);
    EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());
}

TEST(Preemption, LaterRequestAdoptsParkedPrefixWhileVictimFrozen)
{
    SyntheticModel model(smallDecoder(), 83);
    KernelContext kc(Backend::Serial);
    const ServeSessionOptions options = preemptOptions(&kc, false, false);

    ServeRequest victim;
    victim.promptTokens = {7, 8, 9, 10};
    victim.maxNewTokens = 12;
    victim.priority = Priority::Batch;
    ServeRequest chat;
    chat.promptTokens = {1, 2, 3};
    chat.maxNewTokens = 3;
    chat.priority = Priority::Interactive;

    const std::vector<int> victim_ref = runSolo(model, options, victim);
    const std::vector<int> chat_ref = runSolo(model, options, chat);

    // A reader whose prompt extends the victim's frozen tokens: the
    // parked entry (prompt + generated[0..4], two complete 4-row blocks)
    // is an ordinary prefix-cache entry, so the reader adopts those
    // pages COW — while their owner is still parked.
    ServeRequest reader;
    reader.promptTokens = victim.promptTokens;
    reader.promptTokens.insert(reader.promptTokens.end(),
                               victim_ref.begin(), victim_ref.begin() + 5);
    reader.maxNewTokens = 3;
    reader.priority = Priority::Interactive;
    const std::vector<int> reader_ref = runSolo(model, options, reader);

    ServeSession session(model, options);
    const int vid = session.submit(victim);
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(session.step());
    const int cid = session.submit(chat);
    ASSERT_TRUE(session.step());
    ASSERT_EQ(RequestState::Preempted, session.state(vid));

    const int64_t hits_before = session.scheduler().stats().prefixHits;
    const int64_t skipped_before =
        session.scheduler().stats().prefillSkippedRows;
    const int rid = session.submit(reader);
    // Step until the reader is admitted (it overtakes the Preempted
    // Batch head once the chat request frees the single slot).
    int guard = 0;
    while (session.state(rid) == RequestState::Queued && guard++ < 64)
        ASSERT_TRUE(session.step());
    ASSERT_NE(RequestState::Queued, session.state(rid));
    // The victim must still be frozen: the hit below is the reader's.
    ASSERT_EQ(RequestState::Preempted, session.state(vid));
    EXPECT_EQ(hits_before + 1, session.scheduler().stats().prefixHits);
    // Two complete blocks (8 rows) served from parked pages, not prefill.
    EXPECT_EQ(skipped_before + 8,
              session.scheduler().stats().prefillSkippedRows);
    EXPECT_GT(session.poolStats().sharedBlocks, 0u);
    EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());

    session.drain();
    EXPECT_EQ(victim_ref, session.result(vid)->tokens);
    EXPECT_EQ(chat_ref, session.result(cid)->tokens);
    EXPECT_EQ(reader_ref, session.result(rid)->tokens);

    const BlockPoolStats done = session.poolStats();
    EXPECT_EQ(0u, done.parkedBlocks);
    EXPECT_EQ(done.parks, done.unparks);
    EXPECT_EQ(0u, done.reservedBlocks);
    session.scheduler().prefixCache()->clear();
    EXPECT_EQ(0u, session.poolStats().allocatedBlocks);
    EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());
}

TEST(Preemption, MixedChurnSameTokensWithPreemptionOnAndOff)
{
    SyntheticModel model(smallDecoder(), 67);
    KernelContext kc(Backend::Serial);

    std::vector<ServeRequest> mix;
    for (int i = 0; i < 3; ++i) {
        ServeRequest r;
        r.promptTokens = {10 + 3 * i, 11 + 3 * i, 12 + 3 * i, 13 + 3 * i};
        r.maxNewTokens = 10 + i;
        r.priority = Priority::Batch;
        mix.push_back(r);
    }
    for (int i = 0; i < 3; ++i) {
        ServeRequest r;
        r.promptTokens = {30 + 2 * i, 31 + 2 * i};
        r.maxNewTokens = 3;
        r.sampling = {0.9f, 8, 0.9f, 500 + uint64_t(i)};
        r.priority = Priority::Interactive;
        mix.push_back(r);
    }

    auto run = [&](int max_preemptions, int64_t *preemptions) {
        ServeSessionOptions o;
        o.scheduler.maxBatch = 2;
        o.scheduler.vocabSize = 48;
        o.scheduler.decode.kernels = &kc;
        o.scheduler.prefixCache = true;
        o.scheduler.maxPreemptions = max_preemptions;
        o.scheduler.decode.cache.blockTokens = 4;
        // Bounded: both slots' worst cases fit, little more.
        o.scheduler.kvPoolBlocks = 2 * KVCache::blocksForTokens(
            model.config(), o.scheduler.decode.cache, 4 + 12) + 8;
        ServeSession session(model, o);
        std::vector<int> ids;
        for (size_t i = 0; i < 3; ++i)
            ids.push_back(session.submit(mix[i]));
        for (int s = 0; s < 3; ++s)
            session.step();
        for (size_t i = 3; i < mix.size(); ++i)
            ids.push_back(session.submit(mix[i]));
        session.drain();
        std::vector<std::vector<int>> tokens;
        for (size_t i = 0; i < ids.size(); ++i) {
            const ServeResult *r = session.result(ids[i]);
            EXPECT_NE(nullptr, r);
            EXPECT_EQ(RequestState::Finished, r->state);
            tokens.push_back(r->tokens);
        }
        *preemptions = session.scheduler().stats().preemptions;
        EXPECT_EQ(0u, session.poolStats().parkedBlocks);
        EXPECT_EQ(0u, session.poolStats().reservedBlocks);
        EXPECT_TRUE(session.scheduler().pool().refcountsConsistent());
        return tokens;
    };

    int64_t off_count = 0, on_count = 0;
    const auto off = run(0, &off_count);
    const auto on = run(2, &on_count);
    EXPECT_EQ(0, int(off_count));
    EXPECT_GE(on_count, 1); // both slots busy when Interactive arrives
    // Preemption moves *when* work happens, never which tokens come out.
    EXPECT_EQ(off, on);
}

} // namespace
} // namespace tender
