/**
 * @file
 * Episode runner and the three seed-generated workloads.
 *
 * Request sizes are stratified draws: n requests split [lo, hi] into n
 * equal strata, take one seeded uniform draw inside each, and shuffle.
 * Every seed therefore sees a different set of requests in a different
 * order, while the total work of an episode barely moves between seeds —
 * the property that lets runs with different seeds agree within the
 * benchmark's bounds.
 */

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "model/config.h"
#include "util/rng.h"

namespace servebench {

using tender::Priority;
using tender::Rng;
using tender::ServeRequest;

// ---- Episode ----------------------------------------------------------

Episode::Episode(tender::ServeSession &session, TraceHooks hooks)
    : session_(session), hooks_(hooks)
{
}

int
Episode::submit(ServeRequest spec, Clock::time_point due)
{
    records_.emplace_back();
    RequestRecord &rec = records_.back();
    rec.spec = spec;
    rec.due = due;
    Tracer *tracer = hooks_.tracer;
    RequestRecord *r = &rec;
    spec.onEvent = [r, tracer](const tender::StreamEvent &ev) {
        if (ev.token >= 0)
            r->tokenTimes.push_back(Clock::now());
        if (ev.last) {
            r->done = true;
            if (tracer && r->span >= 0)
                tracer->endRequest(r->span);
        }
    };
    if (!tracer) {
        rec.id = session_.submit(spec);
        return int(records_.size()) - 1;
    }
    const auto t0 = Clock::now();
    const int span = tracer->begin("serve.submit");
    rec.id = session_.submit(spec);
    tracer->end(span);
    tracer->setRequest(span, rec.id);
    rec.span = tracer->beginRequest(rec.id, t0);
    if (rec.done) // rejected at submit: retired inside the call
        tracer->endRequest(rec.span);
    return int(records_.size()) - 1;
}

bool
Episode::step()
{
    ++steps_;
    Tracer *tracer = hooks_.tracer;
    if (!tracer)
        return session_.step();
    const tender::SchedulerStats before = session_.scheduler().stats();
    const tender::DecodePhaseTimes p0 = *hooks_.phases;
    const int span = tracer->begin("serve.step");
    const bool more = session_.step();
    tracer->end(span);
    const tender::SchedulerStats &after = session_.scheduler().stats();
    const tender::DecodePhaseTimes &p1 = *hooks_.phases;
    const double phase = (p1.projectionsUs - p0.projectionsUs) +
                         (p1.appendUs - p0.appendUs) +
                         (p1.historyUs - p0.historyUs) +
                         (p1.attentionUs - p0.attentionUs);
    const auto delta = [&](int64_t tender::SchedulerStats::*field) {
        return double(after.*field - before.*field);
    };
    tracer->arg(span, "rows", delta(&tender::SchedulerStats::batchedRows));
    tracer->arg(span, "prefill_rows",
                delta(&tender::SchedulerStats::prefillRows));
    tracer->arg(span, "prefix_hits",
                delta(&tender::SchedulerStats::prefixHits));
    tracer->arg(span, "drafted",
                delta(&tender::SchedulerStats::draftedTokens));
    tracer->arg(span, "accepted",
                delta(&tender::SchedulerStats::acceptedDraftTokens));
    tracer->arg(span, "preemptions",
                delta(&tender::SchedulerStats::preemptions));
    tracer->arg(span, "engine_us", phase);
    return more;
}

const tender::ServeResult *
Episode::result(int index) const
{
    return session_.result(records_[size_t(index)].id);
}

namespace {

/** n stratified draws over [lo, hi], shuffled (see file comment). */
std::vector<int>
stratified(Rng &rng, int n, int lo, int hi)
{
    std::vector<int> v(size_t(n), lo);
    for (int i = 0; i < n; ++i)
        v[size_t(i)] = lo + int(std::floor((i + rng.uniform()) *
                                           (hi - lo + 1) / n));
    std::shuffle(v.begin(), v.end(), rng.engine());
    return v;
}

/** Stratified draws over [lo, hi] for each admission wave of `wave`
 *  requests in turn, so every wave spans the range, not only the whole. */
std::vector<int>
stratifiedWaves(Rng &rng, int n, int wave, int lo, int hi)
{
    std::vector<int> v;
    for (int i = 0; i < n; i += wave) {
        const std::vector<int> w =
            stratified(rng, std::min(wave, n - i), lo, hi);
        v.insert(v.end(), w.begin(), w.end());
    }
    return v;
}

std::vector<int>
randomTokens(Rng &rng, int n, int vocab)
{
    std::vector<int> v(static_cast<size_t>(n));
    for (int &t : v)
        t = int(rng.randint(0, vocab - 1));
    return v;
}

ServeRequest
sampledRequest(std::vector<int> prompt, int budget, uint64_t seed)
{
    ServeRequest r;
    r.promptTokens = std::move(prompt);
    r.maxNewTokens = budget;
    r.sampling.temperature = 0.8f;
    r.sampling.topK = 40;
    r.sampling.seed = seed;
    r.priority = Priority::Interactive;
    return r;
}

/** Visible reply appended to a conversation or checked by the caller. */
const std::vector<int> &
tokensOf(const Episode &episode, int index)
{
    const tender::ServeResult *res = episode.result(index);
    TENDER_CHECK(res);
    return res->tokens;
}

// ---- chat_multiturn ----------------------------------------------------

/**
 * Closed loop of 12 chat clients over maxBatch 8: a client submits its
 * next turn as soon as its previous reply retired (observed after a
 * step), so up to 4 clients wait for admission. Every prompt is the
 * whole conversation so far: a 128-token system prompt shared by all
 * clients and every earlier user turn and reply (at most about 290
 * tokens in two turns, so no conversation needs restarting). The prefix
 * cache serves most of each prompt; fp32 KV and no scheme, so Tender's
 * quantization is bypassed.
 */
class ChatMultiturn : public Workload
{
  public:
    static constexpr int kClients = 12;
    static constexpr int kTurns = 2;
    static constexpr int kSystemTokens = 128;

    explicit ChatMultiturn(uint64_t seed)
    {
        cfg_.model = tender::replicaOf(tender::modelByName("OPT-6.7B"), 16);
        // One worker: the small decode steps of this workload are the most
        // exposed to fork-join wake-up jitter on a shared host.
        cfg_.workers = 1;
        cfg_.scheduler.maxBatch = 8;
        cfg_.scheduler.prefixCache = true;
        cfg_.scheduler.decode.cache.mode = tender::KVCacheMode::Fp32;
        const int vocab = cfg_.scheduler.vocabSize;

        Rng rng(seed);
        system_ = randomTokens(rng, kSystemTokens, vocab);
        const int n = kClients * kTurns;
        const std::vector<int> users = stratified(rng, n, 16, 48);
        const std::vector<int> budgets = stratified(rng, n, 16, 64);
        clients_.resize(kClients);
        for (int c = 0; c < kClients; ++c) {
            Client &cl = clients_[size_t(c)];
            for (int t = 0; t < kTurns; ++t) {
                const size_t i = size_t(c * kTurns + t);
                Turn turn;
                turn.user = randomTokens(rng, users[i], vocab);
                turn.budget = budgets[i];
                turn.stop = randomTokens(rng, 2, vocab);
                turn.sampleSeed = rng.engine()();
                cl.turns.push_back(std::move(turn));
            }
        }
    }

    const char *name() const override { return "chat_multiturn"; }
    const ServeConfig &config() const override { return cfg_; }
    /** Two first-wave requests: system prompt plus one user turn. */
    std::vector<int> qualityRecords() const override { return {0, 1}; }

    Limits
    limits(Priority) const override
    {
        return {kTtftLimitMs, kItlLimitMs};
    }

    std::string
    describe() const override
    {
        return "closed loop: 12 Interactive clients x 2 turns, maxBatch 8, "
               "128-token shared system prompt, 16-48-token user turns, "
               "16-64-token budgets, temperature 0.8 top-k 40, one 2-token "
               "stop sequence each, streamed";
    }

    void
    run(Episode &ep) const override
    {
        struct State
        {
            std::vector<int> convo;
            int turn = 0;
            int inflight = -1;
        };
        std::vector<State> st(clients_.size());
        for (State &s : st)
            s.convo = system_;
        for (;;) {
            bool busy = false;
            for (size_t c = 0; c < clients_.size(); ++c) {
                State &s = st[c];
                if (s.inflight < 0 && s.turn < kTurns) {
                    const Turn &t = clients_[c].turns[size_t(s.turn)];
                    s.convo.insert(s.convo.end(), t.user.begin(),
                                   t.user.end());
                    ServeRequest r =
                        sampledRequest(s.convo, t.budget, t.sampleSeed);
                    r.stopSequences = {t.stop};
                    s.inflight = ep.submit(std::move(r), Clock::now());
                }
                busy = busy || s.inflight >= 0;
            }
            if (!busy)
                return;
            ep.step();
            for (State &s : st) {
                if (s.inflight >= 0 && ep.result(s.inflight)) {
                    const std::vector<int> &reply = tokensOf(ep, s.inflight);
                    s.convo.insert(s.convo.end(), reply.begin(), reply.end());
                    s.inflight = -1;
                    ++s.turn;
                }
            }
        }
    }

  private:
    static constexpr double kTtftLimitMs = 3000.0;
    static constexpr double kItlLimitMs = 80.0;

    struct Turn
    {
        std::vector<int> user;
        int budget = 0;
        std::vector<int> stop;
        uint64_t sampleSeed = 0;
    };
    struct Client
    {
        std::vector<Turn> turns;
    };

    ServeConfig cfg_;
    std::vector<int> system_;
    std::vector<Client> clients_;
};

// ---- w8a8_batch --------------------------------------------------------

/**
 * Offline batch: 12 unshared greedy requests submitted at once and
 * drained through maxBatch 8, with TenderScheme (8-bit, G=8, alpha=2,
 * 32-row chunks) on all six weight GEMMs and Tender-quantized fused KV.
 * Tender's decomposed integer GEMM dominates; prefix cache, sampler and
 * drafter are bypassed.
 */
class W8a8Batch : public Workload
{
  public:
    static constexpr int kRequests = 12;

    explicit W8a8Batch(uint64_t seed)
    {
        cfg_.model = tender::replicaOf(tender::modelByName("OPT-6.7B"), 16);
        cfg_.scheduler.maxBatch = 8;
        cfg_.scheduler.decode.cache.mode =
            tender::KVCacheMode::TenderQuantized;
        cfg_.scheduler.decode.cache.tender.rowChunk = 32;
        cfg_.scheduler.decode.fusedQuantKv = true;
        cfg_.tenderScheme = true;
        cfg_.schemeConfig.bits = 8;
        cfg_.schemeConfig.numGroups = 8;
        cfg_.schemeConfig.alpha = 2;
        cfg_.schemeConfig.rowChunk = 32;

        Rng rng(seed);
        const int wave = cfg_.scheduler.maxBatch;
        const std::vector<int> prompts =
            stratifiedWaves(rng, kRequests, wave, 128, 384);
        const std::vector<int> budgets =
            stratifiedWaves(rng, kRequests, wave, 16, 32);
        for (int i = 0; i < kRequests; ++i) {
            ServeRequest r;
            r.promptTokens = randomTokens(rng, prompts[size_t(i)],
                                          cfg_.scheduler.vocabSize);
            r.maxNewTokens = budgets[size_t(i)];
            requests_.push_back(std::move(r));
        }
    }

    const char *name() const override { return "w8a8_batch"; }
    const ServeConfig &config() const override { return cfg_; }
    std::vector<int> qualityRecords() const override
    {
        return {0, 1, 2, 3, 4, 5};
    }

    Limits
    limits(Priority) const override
    {
        return {kTtftLimitMs, kItlLimitMs};
    }

    std::string
    describe() const override
    {
        return "offline batch: 12 greedy Batch requests submitted at once, "
               "maxBatch 8, 128-384-token unshared prompts, 16-32-token "
               "budgets, TenderScheme W8A8 on q/k/v/o/fc1/fc2";
    }

    void
    run(Episode &ep) const override
    {
        const Clock::time_point t0 = Clock::now();
        for (const ServeRequest &r : requests_)
            ep.submit(r, t0);
        while (ep.step()) {
        }
    }

  private:
    static constexpr double kTtftLimitMs = 8000.0;
    static constexpr double kItlLimitMs = 300.0;

    ServeConfig cfg_;
    std::vector<ServeRequest> requests_;
};

// ---- gqa_spec_pressure -------------------------------------------------

/**
 * GQA replica (8 query heads on 1 kv head) under memory pressure: 4
 * closed-loop Batch clients speculate (prompt lookup, k=4) over long
 * repetitive-suffix documents while a seeded Poisson trace of short
 * sampled Interactive requests arrives, clocked in scheduler steps. The
 * bounded pool leaves less than one Interactive reservation free beside
 * four average Batch reservations, so arrivals preempt Batch requests
 * (maxPreemptions 2), which park their KV and resume by replay.
 */
class GqaSpecPressure : public Workload
{
  public:
    static constexpr int kBatchClients = 4;
    static constexpr int kDocsPerClient = 1;
    static constexpr int kArrivals = 16;
    static constexpr double kMeanGapSteps = 8.0;
    static constexpr int kInteractiveBudget = 16;

    explicit GqaSpecPressure(uint64_t seed)
    {
        cfg_.model =
            tender::replicaOf(tender::modelByName("Llama-2-70B"), 32);
        cfg_.scheduler.maxBatch = kBatchClients + 1;
        cfg_.scheduler.prefixCache = true;
        cfg_.scheduler.maxPreemptions = 2;
        tender::KVCacheConfig &kv = cfg_.scheduler.decode.cache;
        kv.mode = tender::KVCacheMode::TenderQuantized;
        kv.tender.rowChunk = 32;
        cfg_.scheduler.decode.fusedQuantKv = true;
        cfg_.scheduler.decode.mqAttentionPanels = true;
        const int vocab = cfg_.scheduler.vocabSize;

        Rng rng(seed);
        const int docs = kBatchClients * kDocsPerClient;
        const std::vector<int> lens = stratified(rng, docs, 384, 1024);
        const std::vector<int> budgets = stratified(rng, docs, 64, 128);
        const std::vector<int> suffixes = stratified(rng, docs, 64, 160);
        size_t reserved = 0;
        for (int i = 0; i < docs; ++i) {
            const size_t k = size_t(i);
            // Random body, then a short seeded cycle repeated to the end:
            // the continuation prompt lookup can latch onto.
            std::vector<int> doc =
                randomTokens(rng, lens[k] - suffixes[k], vocab);
            const std::vector<int> cycle =
                randomTokens(rng, int(rng.randint(2, 4)), vocab);
            for (int t = 0; t < suffixes[k]; ++t)
                doc.push_back(cycle[size_t(t) % cycle.size()]);
            ServeRequest r;
            r.promptTokens = std::move(doc);
            r.maxNewTokens = budgets[k];
            r.speculation.drafter = tender::DrafterKind::PromptLookup;
            r.speculation.maxDraft = 4;
            reserved += reservation(lens[k] + budgets[k] - 1);
            docs_.push_back(std::move(r));
        }
        const std::vector<int> prompts = stratified(rng, kArrivals, 16, 32);
        // Stratified exponential gaps: a Poisson trace whose length in
        // steps barely moves between seeds.
        std::vector<double> gaps(kArrivals);
        for (int i = 0; i < kArrivals; ++i)
            gaps[size_t(i)] =
                -kMeanGapSteps * std::log(1.0 - (i + rng.uniform()) /
                                                    kArrivals);
        std::shuffle(gaps.begin(), gaps.end(), rng.engine());
        double at = 0.0;
        for (int i = 0; i < kArrivals; ++i) {
            at += gaps[size_t(i)];
            arrivalStep_.push_back(int(std::lround(at)));
            arrivals_.push_back(sampledRequest(
                randomTokens(rng, prompts[size_t(i)], vocab),
                kInteractiveBudget, rng.engine()()));
        }
        // Four average Batch reservations plus one block short of an
        // Interactive one.
        cfg_.scheduler.kvPoolBlocks =
            reserved * kBatchClients / size_t(docs) +
            reservation(32 + kInteractiveBudget - 1) - 1;
    }

    const char *name() const override { return "gqa_spec_pressure"; }
    const ServeConfig &config() const override { return cfg_; }
    /** One long document and the first four Interactive arrivals (the
     *  documents are submitted first). */
    std::vector<int> qualityRecords() const override
    {
        return {0, kBatchClients, kBatchClients + 1, kBatchClients + 2,
                kBatchClients + 3};
    }

    Limits
    limits(Priority priority) const override
    {
        return priority == Priority::Interactive
            ? Limits{kInteractiveTtftMs, kInteractiveItlMs}
            : Limits{kBatchTtftMs, kBatchItlMs};
    }

    std::string
    describe() const override
    {
        return "4 closed-loop Batch clients x 1 document (384-1024 tokens, "
               "repetitive suffix, prompt lookup k=4, 64-128-token budgets) "
               "+ 16 Poisson Interactive arrivals (mean gap 8 steps, "
               "16-32-token prompts, 16-token budget, sampled), maxBatch 5, "
               "bounded pool, maxPreemptions 2";
    }

    void
    run(Episode &ep) const override
    {
        std::vector<int> inflight(kBatchClients, -1);
        std::vector<int> next(kBatchClients, 0);
        std::vector<int> interactive;
        size_t a = 0;
        for (int step = 0;; ++step) {
            for (int c = 0; c < kBatchClients; ++c) {
                int &f = inflight[size_t(c)];
                if (f >= 0 && ep.result(f))
                    f = -1;
                if (f < 0 && next[size_t(c)] < kDocsPerClient)
                    f = ep.submit(
                        docs_[size_t(c * kDocsPerClient + next[size_t(c)]++)],
                        Clock::now());
            }
            interactive.erase(
                std::remove_if(interactive.begin(), interactive.end(),
                               [&](int i) { return ep.result(i) != nullptr; }),
                interactive.end());
            const bool batchBusy =
                std::any_of(inflight.begin(), inflight.end(),
                            [](int f) { return f >= 0; });
            if (!batchBusy && interactive.empty()) {
                if (a == arrivals_.size())
                    return;
                step = std::max(step, arrivalStep_[a]); // idle: skip ahead
            }
            // Arrivals due at this step are submitted just before it and
            // timed from its start.
            const Clock::time_point due = Clock::now();
            for (; a < arrivals_.size() && arrivalStep_[a] <= step; ++a)
                interactive.push_back(ep.submit(arrivals_[a], due));
            ep.step();
        }
    }

  private:
    static constexpr double kInteractiveTtftMs = 250.0;
    static constexpr double kInteractiveItlMs = 100.0;
    static constexpr double kBatchTtftMs = 5000.0;
    static constexpr double kBatchItlMs = 100.0;

    size_t
    reservation(int tokens) const
    {
        return tender::KVCache::blocksForTokens(
            cfg_.model, cfg_.scheduler.decode.cache, tokens);
    }

    ServeConfig cfg_;
    std::vector<ServeRequest> docs_;
    std::vector<ServeRequest> arrivals_;
    std::vector<int> arrivalStep_;
};

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"chat_multiturn", "w8a8_batch", "gqa_spec_pressure"};
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "chat_multiturn")
        return std::make_unique<ChatMultiturn>(seed);
    if (name == "w8a8_batch")
        return std::make_unique<W8a8Batch>(seed);
    if (name == "gqa_spec_pressure")
        return std::make_unique<GqaSpecPressure>(seed);
    return nullptr;
}

} // namespace servebench
