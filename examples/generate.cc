/**
 * @file
 * Greedy token generation with the decode runtime: fp32 vs
 * Tender-quantized KV cache on an OPT statistical replica.
 *
 * Usage note: the runtime layers compose as KVCache (per-layer, per-head
 * storage; fp32 or Tender-requantized int8 chunks) under DecodeEngine
 * (prefill once, then step token by token, optionally pushing the weight
 * GEMMs through a GemmScheme), under BatchScheduler (continuous batching
 * across requests — see bench/bench_decode_json.cc). A Vocab readout closes
 * the loop: hidden state -> greedy token -> next input row. This example
 * drives the single-request path and checks the runtime's defining
 * property: with an fp32 cache, incremental decode produces *identical*
 * tokens to re-running full-sequence prefill at every step — the cache is
 * pure reuse, not an approximation — while the Tender-quantized cache
 * trades a bounded perturbation for ~4x smaller KV storage.
 *
 * A third arm always runs the quantized cache through the fused
 * integer-domain attention path (attentionFusedQuantPanel): scores and
 * probs*V consume the KV chunk codes in place, no fp32 materialization
 * (--fused-kv is accepted for compatibility but is no longer needed).
 * Every arm reports a per-phase timing breakdown (projections, K/V
 * append/requant, history materialization or view building, attention)
 * plus the achieved projection-GEMM MFLOP/s next to the kernel arm in
 * use, so a perf regression is attributable to a phase and a kernel arm,
 * not just a blended mean latency.
 *
 * With --shared-prefix the example additionally walks the serving-side
 * copy-on-write prefix cache: a fleet of requests sharing one system
 * prompt runs through the BatchScheduler twice — prefix caching on and
 * off — and prints the reuse stats (prefill rows skipped, cache hits,
 * COW faults, shared blocks, peak KV bytes) plus the defining property:
 * the generated tokens are identical either way, because shared KV pages
 * are bit-identical to privately computed ones.
 *
 * With --sample the example instead finishes by streaming one request
 * through the serving front end (serve/serve_session.h):
 * temperature/top-k/top-p sampling with a fixed seed, tokens printed by
 * the per-token streaming callback, TTFT and inter-token latency
 * reported, and a re-run with the same seed shown to reproduce the
 * stream exactly.
 *
 * With --preempt the example walks mid-decode preemption
 * (SchedulerOptions::maxPreemptions): a batch-class request decodes
 * alone until an interactive request arrives, the scheduler freezes the
 * victim — its complete KV blocks parked in the prefix cache, its
 * reservation released, its lifecycle state Preempted — serves the
 * interactive request, then resumes the victim by re-adopting the parked
 * pages and recomputing the rest as one prefill segment that reads out
 * its next token. The walkthrough prints the lifecycle as it happens and
 * checks the defining property: the resumed request generates exactly
 * the tokens of an uninterrupted run.
 *
 * With --faults the example walks the failure-containment layer
 * (util/fault_injection.h; docs/robustness.md): a request fleet runs
 * under a seeded fault plan — KV allocation failure, a throwing
 * streaming callback — plus a deadline-doomed straggler and one request
 * past the queue bound. Each failure retires as Failed with its
 * structured FailureReason, and the walkthrough checks the containment
 * contract: survivors decode bit-identical tokens to a fault-free run
 * and the failed requests return every KV block.
 *
 * With --speculate the example walks speculative decoding
 * (runtime/draft.h; docs/speculation.md): a repetitive prompt decodes
 * with the prompt-lookup drafter, printing per verification step how
 * many draft tokens were proposed and how long the accepted prefix
 * was, then the acceptance-rate summary and the defining property —
 * the tokens are bit-identical to the plain run's; only the step
 * count changed.
 *
 * Unknown flags are rejected with a usage line listing every mode.
 *
 *   $ ./examples/generate [n_tokens] [--fused-kv] [--shared-prefix]
 *                         [--sample] [--preempt] [--faults] [--speculate]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "model/transformer.h"
#include "runtime/batch_scheduler.h"
#include "runtime/decode_engine.h"
#include "serve/serve_session.h"
#include "util/cpu_features.h"
#include "util/fault_injection.h"

using namespace tender;

namespace {

using Clock = std::chrono::steady_clock;

double
micros(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

struct GenRun
{
    std::vector<int> tokens;
    std::vector<double> stepUs;
    BlockPoolStats pool;     ///< KV block-pool occupancy after the run
    size_t memoBytes = 0;    ///< fallback-path dequantization memo
    DecodePhaseTimes phases; ///< per-phase breakdown across all steps
};

/** Greedy-decode with the runtime: prefill the prompt, then step. */
GenRun
runtimeGenerate(SyntheticModel &model, const Vocab &vocab,
                const std::vector<int> &prompt, int n_tokens,
                DecodeOptions options)
{
    GenRun run;
    options.phases = &run.phases;
    DecodeEngine engine(model, options);
    const KernelContext &kc = defaultKernels();
    auto t0 = Clock::now();
    Matrix h = engine.prefill(vocab.embedAll(prompt));
    int token = vocab.argmaxToken(h, h.rows() - 1, kc);
    run.stepUs.push_back(micros(t0, Clock::now()));
    run.tokens.push_back(token);
    for (int i = 1; i < n_tokens; ++i) {
        t0 = Clock::now();
        h = engine.step(vocab.embed(token));
        token = vocab.argmaxToken(h, 0, kc);
        run.stepUs.push_back(micros(t0, Clock::now()));
        run.tokens.push_back(token);
    }
    run.pool = engine.cache().poolStats();
    run.memoBytes = engine.cache().dequantMemoBytes();
    return run;
}

/** The quadratic reference: re-run full-sequence prefill for each token. */
std::vector<int>
prefillGenerate(SyntheticModel &model, const Vocab &vocab,
                const std::vector<int> &prompt, int n_tokens)
{
    const KernelContext &kc = defaultKernels();
    std::vector<int> tokens;
    Matrix seq = vocab.embedAll(prompt);
    for (int i = 0; i < n_tokens; ++i) {
        const Matrix h = modelForward(model, seq);
        const int token = vocab.argmaxToken(h, h.rows() - 1, kc);
        tokens.push_back(token);
        const Matrix next = vocab.embed(token);
        Matrix grown(seq.rows() + 1, seq.cols());
        for (int r = 0; r < seq.rows(); ++r)
            for (int c = 0; c < seq.cols(); ++c)
                grown(r, c) = seq(r, c);
        for (int c = 0; c < seq.cols(); ++c)
            grown(seq.rows(), c) = next(0, c);
        seq = grown;
    }
    return tokens;
}

double
mean(const std::vector<double> &v, size_t from)
{
    if (v.size() <= from)
        return 0.0;
    double acc = 0.0;
    for (size_t i = from; i < v.size(); ++i)
        acc += v[i];
    return acc / double(v.size() - from);
}

/**
 * --shared-prefix walkthrough: one 40-token system prompt reused by a
 * small request fleet, decoded with and without the scheduler's COW
 * prefix cache. Returns true when both runs generate identical tokens.
 */
bool
sharedPrefixDemo(SyntheticModel &model)
{
    const int sys_len = 40;
    const int followers = 5;
    std::vector<GenRequest> requests;
    {
        std::vector<int> sys;
        for (int t = 0; t < sys_len; ++t)
            sys.push_back((7 + t * 5) % 256);
        for (int id = 0; id <= followers; ++id) {
            GenRequest r;
            r.id = id;
            r.promptTokens = sys;
            const int suffix = id == 0 ? 8 : 3 + (id - 1) % 4;
            for (int t = 0; t < suffix; ++t)
                r.promptTokens.push_back((60 + id * 13 + t) % 256);
            r.maxNewTokens = 6;
            requests.push_back(r);
        }
    }

    auto run = [&](bool sharing, SchedulerStats &stats_out,
                   BlockPoolStats &pool_out, size_t &entry_blocks) {
        SchedulerOptions options;
        options.maxBatch = 3;
        options.vocabSize = 256;
        options.decode.cache.tender.rowChunk = 8;
        options.decode.cache.blockTokens = 16;
        options.prefixCache = sharing;
        BatchScheduler scheduler(model, options);
        // Warm the cache with the leader before the fleet arrives — the
        // pattern prefix caching exists for.
        scheduler.submit(requests.front());
        scheduler.step();
        for (size_t i = 1; i < requests.size(); ++i)
            scheduler.submit(requests[i]);
        auto results = scheduler.drain();
        stats_out = scheduler.stats();
        pool_out = scheduler.poolStats();
        entry_blocks = scheduler.prefixCache()
            ? scheduler.prefixCache()->blocksHeld()
            : 0;
        return results;
    };

    std::printf("\n== --shared-prefix: %d-token system prompt, %zu "
                "requests, fp32 KV ==\n",
                sys_len, requests.size());
    SchedulerStats shared_stats, cold_stats;
    BlockPoolStats shared_pool, cold_pool;
    size_t shared_entry_blocks = 0, cold_entry_blocks = 0;
    const auto shared = run(true, shared_stats, shared_pool,
                            shared_entry_blocks);
    const auto cold = run(false, cold_stats, cold_pool, cold_entry_blocks);

    std::printf("prefix cache:   %lld hits, %lld misses, %lld prefill rows "
                "skipped (of %lld prompt rows), %lld entries inserted\n",
                (long long)shared_stats.prefixHits,
                (long long)shared_stats.prefixMisses,
                (long long)shared_stats.prefillSkippedRows,
                (long long)(shared_stats.prefillRows +
                            shared_stats.prefillSkippedRows),
                (long long)shared_stats.prefixInsertions);
    std::printf("block sharing:  %lld refs handed out, %lld COW faults, "
                "%zu blocks pinned by cache entries\n",
                (long long)shared_pool.shares,
                (long long)shared_pool.cowCopies, shared_entry_blocks);
    std::printf("peak KV bytes:  %zu shared vs %zu cold (%.2fx smaller); "
                "batched rows %lld vs %lld\n",
                shared_pool.peakAllocatedBytes(),
                cold_pool.peakAllocatedBytes(),
                double(cold_pool.peakAllocatedBytes()) /
                    double(shared_pool.peakAllocatedBytes()),
                (long long)shared_stats.batchedRows,
                (long long)cold_stats.batchedRows);

    bool identical = shared.size() == cold.size();
    for (size_t i = 0; identical && i < shared.size(); ++i)
        identical = shared[i].id == cold[i].id &&
            shared[i].tokens == cold[i].tokens;
    std::printf("tokens vs no-sharing run: %s\n",
                identical ? "IDENTICAL for every request (shared pages "
                            "are bit-exact)"
                          : "MISMATCH — this is a bug");
    return identical;
}

/**
 * --sample walkthrough: one streamed request through the serving front
 * end (ServeSession) with temperature/top-k/top-p sampling and a fixed
 * seed. Tokens print as the streaming callback delivers them, then the
 * request's TTFT and per-token latency; a second run with the same seed
 * must reproduce the stream token for token. Returns true when it does.
 */
bool
sampleDemo(SyntheticModel &model, const std::vector<int> &prompt,
           int n_tokens)
{
    ServeRequest request;
    request.promptTokens = prompt;
    request.maxNewTokens = n_tokens;
    request.priority = Priority::Interactive;
    request.sampling.temperature = 0.9f;
    request.sampling.topK = 40;
    request.sampling.topP = 0.95f;
    request.sampling.seed = 2024;

    std::printf("\n== --sample: temperature %.1f, top-k %d, top-p %.2f, "
                "seed %llu ==\n",
                double(request.sampling.temperature), request.sampling.topK,
                double(request.sampling.topP),
                (unsigned long long)request.sampling.seed);

    auto run = [&](bool verbose) {
        ServeSessionOptions options;
        options.scheduler.vocabSize = 256;
        ServeSession session(model, options);
        ServeRequest req = request;
        if (verbose) {
            std::printf("stream: ");
            req.onEvent = [](const StreamEvent &ev) {
                if (ev.last)
                    std::printf(" [%s]\n", finishReasonName(ev.reason));
                else
                    std::printf("%s%d", ev.index > 0 ? " " : "", ev.token);
                std::fflush(stdout);
            };
        }
        const int id = session.submit(req);
        session.drain();
        return *session.result(id);
    };

    const ServeResult first = run(true);
    std::printf("TTFT %.1f us (queued %.1f us of it)\n",
                first.metrics.ttftUs, first.metrics.queuedUs);
    if (!first.metrics.interTokenUs.empty()) {
        std::vector<double> itl = first.metrics.interTokenUs;
        std::sort(itl.begin(), itl.end());
        double acc = 0.0;
        for (const double us : itl)
            acc += us;
        std::printf("inter-token latency over %zu tokens: mean %.1f us, "
                    "min %.1f us, max %.1f us\n",
                    itl.size() + 1, acc / double(itl.size()), itl.front(),
                    itl.back());
    }

    const ServeResult second = run(false);
    const bool reproducible = first.tokens == second.tokens;
    std::printf("re-run with the same seed: %s\n",
                reproducible
                    ? "IDENTICAL stream (seeded sampling is deterministic)"
                    : "MISMATCH — this is a bug");
    return reproducible;
}

/**
 * --preempt walkthrough: a batch-class request decodes alone until an
 * interactive request arrives; the scheduler freezes it mid-decode
 * (parking its complete KV blocks in the prefix cache), serves the
 * interactive request, then resumes it: the parked pages are adopted and
 * every row past them is recomputed in one prefill step. Returns true
 * when the resumed request's tokens exactly match an uninterrupted
 * reference run.
 */
bool
preemptDemo(SyntheticModel &model)
{
    ServeRequest victim; // batch-class document job, greedy
    for (int t = 0; t < 12; ++t)
        victim.promptTokens.push_back((5 + t * 11) % 256);
    victim.maxNewTokens = 16;
    victim.priority = Priority::Batch;

    ServeRequest chat; // interactive turn, sampled
    for (int t = 0; t < 5; ++t)
        chat.promptTokens.push_back((140 + t * 3) % 256);
    chat.maxNewTokens = 5;
    chat.priority = Priority::Interactive;
    chat.sampling.temperature = 0.8f;
    chat.sampling.topK = 12;
    chat.sampling.seed = 77;

    auto makeOptions = [](int max_preemptions) {
        ServeSessionOptions o;
        o.scheduler.maxBatch = 1; // one slot: the chat must evict someone
        o.scheduler.vocabSize = 256;
        o.scheduler.decode.cache.blockTokens = 8;
        o.scheduler.prefixCache = true;
        o.scheduler.maxPreemptions = max_preemptions;
        return o;
    };

    std::printf("\n== --preempt: batch victim (12-token prompt, 16-token "
                "budget) vs interactive chat, maxBatch 1 ==\n");

    // Reference: the victim runs start to finish, uninterrupted.
    ServeSession solo(model, makeOptions(0));
    const int solo_id = solo.submit(victim);
    solo.drain();
    const std::vector<int> reference = solo.result(solo_id)->tokens;

    ServeSession session(model, makeOptions(2));
    const int vid = session.submit(victim);
    for (int s = 0; s < 6; ++s)
        session.step();
    std::printf("6 steps in: victim is %s, 6 tokens decoded\n",
                requestStateName(session.state(vid)));
    const int cid = session.submit(chat);
    session.step(); // admission preempts the victim, seats the chat
    std::printf("interactive arrives: victim is %s, %zu KV blocks parked "
                "in the prefix cache, chat is %s\n",
                requestStateName(session.state(vid)),
                session.scheduler().poolStats().parkedBlocks,
                requestStateName(session.state(cid)));
    session.drain();
    const ServeResult &v = *session.result(vid);
    const ServeResult &c = *session.result(cid);
    const SchedulerStats &st = session.scheduler().stats();
    std::printf("drained: victim is %s after %d preemption(s), parked "
                "%.0f us, %lld of its KV rows re-adopted on resume; chat "
                "TTFT %.0f us\n",
                requestStateName(v.state), v.metrics.preemptions,
                v.metrics.parkedUs, (long long)st.resumedRowsReused,
                c.metrics.ttftUs);
    const bool identical = v.tokens == reference;
    std::printf("victim tokens vs uninterrupted run: %s\n",
                identical ? "IDENTICAL (the one-step resume recomputes "
                            "the dropped rows bit for bit)"
                          : "MISMATCH — this is a bug");
    return identical;
}

/**
 * --faults walkthrough: the failure-containment layer under a seeded
 * fault plan (util/fault_injection.h). A small fleet runs twice — once
 * fault-free as the reference, once with KV-allocation and
 * streaming-callback faults armed, plus a deadline-doomed straggler and
 * one request past the queue bound. Each failure retires as Failed with
 * a structured reason; the defining property is containment: every
 * surviving request's tokens are bit-identical to the fault-free run,
 * and the failed requests leak nothing. Returns true when both hold.
 */
bool
faultsDemo(SyntheticModel &model)
{
    std::vector<ServeRequest> fleet;
    for (int id = 0; id < 4; ++id) {
        ServeRequest r;
        for (int t = 0; t < 10; ++t)
            r.promptTokens.push_back((11 + id * 17 + t * 7) % 256);
        r.maxNewTokens = 8;
        r.onEvent = [](const StreamEvent &) {}; // exposes the callback site
        fleet.push_back(r);
    }

    auto makeOptions = [&](bool shed) {
        ServeSessionOptions o;
        o.scheduler.maxBatch = 2;
        o.scheduler.vocabSize = 256;
        o.scheduler.decode.cache.blockTokens = 8;
        // Front-door bound: doomed straggler + the fleet fill the queue,
        // so the one submission past that is shed as QueueOverflow.
        if (shed)
            o.scheduler.maxQueueDepth = int(fleet.size()) + 1;
        return o;
    };

    const char *plan = "alloc@6;callback@2";
    std::printf("\n== --faults: plan \"%s\" (same grammar as the "
                "TENDER_FAULT_PLAN env knob) ==\n",
                plan);

    // Fault-free reference: the survivors' bit-exactness baseline.
    FaultInjector::instance().disarm();
    ServeSession ref_session(model, makeOptions(false));
    std::vector<int> ref_ids;
    for (const ServeRequest &r : fleet)
        ref_ids.push_back(ref_session.submit(r));
    ref_session.drain();

    FaultInjector::instance().arm(plan);
    ServeSession session(model, makeOptions(true));
    ServeRequest doomed = fleet.front();
    doomed.deadlineUs = 1; // expires before the first step's shed sweep
    const int doomed_id = session.submit(doomed);
    std::vector<int> ids;
    for (const ServeRequest &r : fleet)
        ids.push_back(session.submit(r));
    ServeRequest extra = fleet.back();
    const int extra_id = session.submit(extra); // one past maxQueueDepth
    std::printf("submitted %zu requests + 1 doomed (deadline 1 us) + 1 "
                "past the queue bound (maxQueueDepth %zu)\n",
                fleet.size(), fleet.size() + 1);
    session.drain();
    FaultInjector::instance().disarm();

    ids.push_back(doomed_id);
    ids.push_back(extra_id);
    int finished = 0;
    bool survivors_exact = true;
    for (size_t i = 0; i < ids.size(); ++i) {
        const ServeResult &r = *session.result(ids[i]);
        if (r.state == RequestState::Finished) {
            ++finished;
            // Containment: a request the plan did not touch decodes the
            // exact fault-free tokens, whoever failed around it.
            const bool exact = i < ref_ids.size() &&
                r.tokens ==
                    ref_session.result(ref_ids[i])->tokens;
            survivors_exact = survivors_exact && exact;
            std::printf("request %d: Finished, %zu tokens, bit-exact vs "
                        "fault-free run: %s\n",
                        r.id, r.tokens.size(), exact ? "yes" : "NO (bug)");
        } else {
            std::printf("request %d: Failed (%s) after %zu tokens — %s\n",
                        r.id, failureReasonName(r.failure), r.tokens.size(),
                        r.error.c_str());
        }
    }

    const BlockPoolStats pool = session.poolStats();
    const bool clean = session.scheduler().pool().refcountsConsistent() &&
        pool.allocatedBlocks == 0 && pool.reservedBlocks == 0;
    std::printf("pool after drain: %zu blocks allocated, %zu reserved, "
                "refcount audit %s — failed requests returned "
                "everything\n",
                pool.allocatedBlocks, pool.reservedBlocks,
                clean ? "consistent" : "INCONSISTENT (leak)");
    std::printf("containment: %d survivors, every one %s\n", finished,
                survivors_exact ? "bit-exact (faults never crossed "
                                  "request boundaries)"
                                : "NOT bit-exact — this is a bug");
    return survivors_exact && clean && finished > 0;
}

/**
 * --speculate walkthrough: speculative decoding (docs/speculation.md)
 * on a repetitive prompt the prompt-lookup drafter is good at. The
 * request first runs plain as the reference, then speculating, stepped
 * manually so each verification step prints how many draft tokens were
 * proposed and how long the accepted prefix was. The defining property
 * is printed last: the speculative run's tokens are bit-identical to
 * the plain run's — speculation only changed the step count. Returns
 * true when they match.
 */
bool
speculateDemo(SyntheticModel &model)
{
    ServeRequest request; // period-3 repetitive prompt: lookup heaven
    const int pattern[3] = {7, 11, 3};
    for (int t = 0; t < 12; ++t)
        request.promptTokens.push_back(pattern[t % 3]);
    request.maxNewTokens = 24;

    ServeRequest spec = request;
    spec.speculation.drafter = DrafterKind::PromptLookup;
    spec.speculation.maxDraft = 4;

    std::printf("\n== --speculate: %s drafter, maxDraft %d, %zu-token "
                "repetitive prompt, %d-token budget ==\n",
                drafterKindName(spec.speculation.drafter),
                spec.speculation.maxDraft, request.promptTokens.size(),
                request.maxNewTokens);

    auto makeOptions = [] {
        ServeSessionOptions o;
        o.scheduler.vocabSize = 256;
        return o;
    };

    // Plain reference: one emitted token per scheduler step.
    ServeSession plain(model, makeOptions());
    const int plain_id = plain.submit(request);
    plain.drain();
    const ServeResult &ref = *plain.result(plain_id);

    ServeSession session(model, makeOptions());
    const int id = session.submit(spec);
    const SchedulerStats &st = session.scheduler().stats();
    long long drafted_seen = 0, accepted_seen = 0, emitted_seen = 0;
    int step_no = 0;
    while (session.state(id) != RequestState::Finished && step_no < 64) {
        session.step();
        ++step_no;
        const long long drafted = st.draftedTokens - drafted_seen;
        const long long accepted = st.acceptedDraftTokens - accepted_seen;
        const long long emitted = st.decodedTokens - emitted_seen;
        drafted_seen = st.draftedTokens;
        accepted_seen = st.acceptedDraftTokens;
        emitted_seen = st.decodedTokens;
        std::printf("step %2d: drafted %lld, accepted prefix %lld, "
                    "emitted %lld token%s%s\n",
                    step_no, drafted, accepted, emitted,
                    emitted == 1 ? "" : "s",
                    step_no == 1 ? "  (prefill, no draft yet)" : "");
    }
    const ServeResult &result = *session.result(id);
    const long long drafted = result.metrics.draftedTokens;
    const long long accepted = result.metrics.acceptedDraftTokens;
    std::printf("summary: %zu tokens in %d steps (plain took %zu); "
                "%lld of %lld draft tokens accepted (%.0f%%)\n",
                result.tokens.size(), step_no, ref.tokens.size(),
                accepted, drafted,
                drafted > 0 ? 100.0 * double(accepted) / double(drafted)
                            : 0.0);
    const bool identical =
        result.state == RequestState::Finished && result.tokens == ref.tokens;
    std::printf("speculative tokens vs plain run: %s\n",
                identical ? "IDENTICAL (verification only accepts what "
                            "the model would emit)"
                          : "MISMATCH — this is a bug");
    return identical;
}

/** `proj_flops` is the analytic FLOP count of the run's weight
 *  projections; divided by the measured projection phase time it gives
 *  the achieved GEMM MFLOP/s on the kernel arm in use. */
void
printPhases(const char *arm, const DecodePhaseTimes &p, double proj_flops)
{
    const double total =
        p.projectionsUs + p.appendUs + p.historyUs + p.attentionUs;
    std::printf("%-10s projections %8.0f us (%4.1f%%, %7.0f MFLOP/s), "
                "append/requant %7.0f us (%4.1f%%), history %7.0f us "
                "(%4.1f%%), attention %7.0f us (%4.1f%%)\n",
                arm, p.projectionsUs, 100.0 * p.projectionsUs / total,
                proj_flops / p.projectionsUs,
                p.appendUs, 100.0 * p.appendUs / total, p.historyUs,
                100.0 * p.historyUs / total, p.attentionUs,
                100.0 * p.attentionUs / total);
}

} // namespace

int
run(int argc, char **argv)
{
    bool fused_kv = false;
    bool shared_prefix = false;
    bool sample = false;
    bool preempt = false;
    bool faults = false;
    bool speculate = false;
    int n_tokens = 20;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fused-kv") == 0) {
            fused_kv = true; // accepted for compatibility; always on now
        } else if (std::strcmp(argv[i], "--shared-prefix") == 0) {
            shared_prefix = true;
        } else if (std::strcmp(argv[i], "--sample") == 0) {
            sample = true;
        } else if (std::strcmp(argv[i], "--preempt") == 0) {
            preempt = true;
        } else if (std::strcmp(argv[i], "--faults") == 0) {
            faults = true;
        } else if (std::strcmp(argv[i], "--speculate") == 0) {
            speculate = true;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr,
                         "unknown option '%s'\n"
                         "usage: %s [n_tokens] [--fused-kv] "
                         "[--shared-prefix] [--sample] [--preempt] "
                         "[--faults] [--speculate]\n"
                         "  n_tokens         tokens to generate per arm "
                         "(default 20)\n"
                         "  --fused-kv       accepted for compatibility; "
                         "the fused arm always runs\n"
                         "  --shared-prefix  COW prefix-cache walkthrough "
                         "(shared system prompt)\n"
                         "  --sample         seeded-sampling streaming "
                         "walkthrough (ServeSession)\n"
                         "  --preempt        mid-decode preemption "
                         "walkthrough (freeze/park/resume)\n"
                         "  --faults         failure-containment "
                         "walkthrough (seeded fault plan, shedding)\n"
                         "  --speculate      speculative-decoding "
                         "walkthrough (draft, verify, accept)\n",
                         argv[i], argv[0]);
            return 2;
        } else {
            n_tokens = std::atoi(argv[i]);
        }
    }
    // The prefill always yields one token, so at least one is generated.
    n_tokens = std::max(1, n_tokens);

    const ModelConfig config = replicaOf(modelByName("OPT-6.7B"), 32);
    SyntheticModel model(config, /*seed=*/5);
    Vocab vocab(256, config.dModel, /*seed=*/1234);
    const std::vector<int> prompt = {17, 3, 99, 4, 250, 8, 8, 31, 77, 5,
                                     120, 9};

    std::printf("== generate: %s (d=%d, heads=%d, layers=%d), prompt %d, "
                "%d new tokens ==\n",
                config.name.c_str(), config.dModel, config.nHeads,
                config.nLayers, int(prompt.size()), n_tokens);
    std::printf("kernel arm: %s (simd: %s)\n",
                backendName(defaultKernels().backend()).c_str(),
                simdDescription().c_str());

    DecodeOptions fp32_options; // Fp32 cache is the default
    DecodeOptions quant_options;
    quant_options.cache.mode = KVCacheMode::TenderQuantized;
    quant_options.cache.tender.rowChunk = 16;
    DecodeOptions fused_options = quant_options;
    fused_options.fusedQuantKv = true;

    const GenRun fp32 =
        runtimeGenerate(model, vocab, prompt, n_tokens, fp32_options);
    const GenRun quant =
        runtimeGenerate(model, vocab, prompt, n_tokens, quant_options);
    const GenRun fused =
        runtimeGenerate(model, vocab, prompt, n_tokens, fused_options);
    (void)fused_kv;
    const std::vector<int> reference =
        prefillGenerate(model, vocab, prompt, n_tokens);

    std::printf("\n%-6s %-14s %-14s %-10s %-10s\n", "step", "fp32-KV us",
                "tender-KV us", "fp32 tok", "tender tok");
    for (int i = 0; i < n_tokens; ++i)
        std::printf("%-6d %-14.1f %-14.1f %-10d %-10d%s\n", i,
                    fp32.stepUs[size_t(i)], quant.stepUs[size_t(i)],
                    fp32.tokens[size_t(i)], quant.tokens[size_t(i)],
                    i == 0 ? "  (prefill)" : "");

    std::printf("\nmean decode latency (excl. prefill): fp32-KV %.1f us, "
                "tender-KV %.1f us, tender-KV fused %.1f us",
                mean(fp32.stepUs, 1), mean(quant.stepUs, 1),
                mean(fused.stepUs, 1));
    // Analytic FLOPs of the run's weight projections (q/k/v/o/fc1/fc2
    // over every row each arm processed): prefill rows plus one row per
    // later step, through every layer.
    const double proj_rows =
        double(prompt.size()) + double(n_tokens - 1);
    const int dh = config.headDim();
    const int kv_dim = config.kvHeads * dh;
    const double proj_flops = 2.0 * proj_rows * double(config.nLayers) *
        (2.0 * double(config.dModel) * double(config.dModel) +
         2.0 * double(config.dModel) * double(kv_dim) +
         2.0 * double(config.dModel) * double(config.dFfn));
    std::printf("\n\nper-phase breakdown (whole run):\n");
    printPhases("fp32-KV", fp32.phases, proj_flops);
    printPhases("tender-KV", quant.phases, proj_flops);
    printPhases("fused-KV", fused.phases, proj_flops);
    // The final generated token is never fed back, so the cache holds
    // prompt + n_tokens - 1 rows. Peak bytes come from the paged block
    // pool's occupancy stats — what the allocator really committed — not
    // from hand-computed sizes.
    std::printf("peak KV cache bytes at %d tokens (block-pool occupancy): "
                "fp32 %zu (%zu blocks of %zu tokens), tender %zu "
                "(%zu blocks) — %.2fx smaller\n",
                int(prompt.size()) + n_tokens - 1,
                fp32.pool.peakAllocatedBytes(),
                fp32.pool.peakAllocatedBlocks, fp32.pool.blockTokens,
                quant.pool.peakAllocatedBytes(),
                quant.pool.peakAllocatedBlocks,
                double(fp32.pool.peakAllocatedBytes()) /
                    double(quant.pool.peakAllocatedBytes()));
    // The dequantize-on-read fallback memoizes frozen chunks in fp32 —
    // runtime working memory on top of the quantized storage. The fused
    // path reads codes in place and never grows it.
    std::printf("dequantize-path frozen-chunk memo: tender %zu B%s\n",
                quant.memoBytes,
                fused.memoBytes == 0
                    ? ", fused 0 B (reads codes in place)"
                    : ", fused nonzero — unexpected");

    // The acceptance property: fp32-KV incremental decode is *identical*
    // to full-sequence prefill, token for token.
    const bool exact = fp32.tokens == reference;
    int quant_match = 0;
    for (int i = 0; i < n_tokens; ++i)
        quant_match += fp32.tokens[size_t(i)] == quant.tokens[size_t(i)];
    std::printf("\nfp32-KV decode vs full-prefill recompute: %s\n",
                exact ? "IDENTICAL token sequences (exact KV reuse)"
                      : "MISMATCH — this is a bug");
    std::printf("tender-KV agreement with fp32-KV: %d/%d tokens\n",
                quant_match, n_tokens);
    {
        int fused_match = 0;
        for (int i = 0; i < n_tokens; ++i)
            fused_match +=
                fused.tokens[size_t(i)] == quant.tokens[size_t(i)];
        std::printf("fused-KV agreement with tender-KV (dequantize "
                    "oracle): %d/%d tokens\n",
                    fused_match, n_tokens);
    }
    bool shared_ok = true;
    if (shared_prefix)
        shared_ok = sharedPrefixDemo(model);
    bool sample_ok = true;
    if (sample)
        sample_ok = sampleDemo(model, prompt, n_tokens);
    bool preempt_ok = true;
    if (preempt)
        preempt_ok = preemptDemo(model);
    bool faults_ok = true;
    if (faults)
        faults_ok = faultsDemo(model);
    bool speculate_ok = true;
    if (speculate)
        speculate_ok = speculateDemo(model);
    return exact && shared_ok && sample_ok && preempt_ok && faults_ok &&
            speculate_ok
        ? 0
        : 1;
}

int
main(int argc, char **argv)
{
    // The single-request arms drive DecodeEngine directly — there is no
    // containment layer below BatchScheduler, so a fault injected there
    // (e.g. TENDER_FAULT_PLAN armed in the environment) surfaces as
    // RequestFault to the caller. Exit cleanly instead of terminating.
    try {
        return run(argc, argv);
    } catch (const RequestFault &fault) {
        std::fprintf(stderr,
                     "fatal: injected fault reached the single-request "
                     "path (%s): %s\n",
                     failureReasonName(fault.reason()), fault.what());
        return 1;
    }
}
