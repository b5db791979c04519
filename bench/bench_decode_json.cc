/**
 * @file
 * Decode-runtime recorder: writes BENCH_decode.json (run via
 * scripts/bench_decode.sh).
 *
 * Sections: continuous batching at batch 1/4/16 over fp32 KV,
 * Tender-quantized KV read through the dequantize oracle, and fused
 * integer-domain attention on the KV codes (fp32_kv, tender_kv,
 * tender_kv_fused); GQA multi-query attention panels on vs off
 * (mq_panels); a churned mixed batch, paged vs contiguous per-request
 * slabs (churn_*); a shared system prompt with and without COW prefix
 * caching (prefix_shared); chat, long-document and short requests through
 * the serving front end (mixed_traffic); mid-decode preemption on vs off
 * under a bounded pool (preemption_pressure); the mixed traffic under a
 * seeded fault plan plus front-door shedding (fault_churn); prompt-lookup
 * speculation against plain decode (spec_decode); and untimed invariants
 * (correctness).
 *
 * Each timed section runs its arms in `rounds` alternating rounds
 * (bench::rounds). An arm records its median tokens_per_s with
 * [min, max], and the phases_us of its median round with
 * unattributed_frac, the wall time no decode phase covers. A compared
 * pair records the median of its per-round ratios with [min, max]. A
 * correctness comparison must hold in every round. The exit code is the
 * AND of the gates; scripts/check_bench.py states what each one guards.
 *
 * Usage: bench_decode_json [--smoke] [prompt new_tokens workers out.json]
 * Defaults: 16 32 <hardware threads> BENCH_decode.json (--smoke: 8 6 and
 * at most 2 workers, with reduced batches and workloads, for CI).
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "model/transformer.h"
#include "quant/metrics.h"
#include "runtime/batch_scheduler.h"
#include "serve/serve_session.h"
#include "util/cpu_features.h"
#include "util/fault_injection.h"
#include "util/rng.h"

using namespace tender;
using bench::JsonOut;

namespace {

using Clock = std::chrono::steady_clock;

/** A KV arm: how the cache stores K/V and how attention reads it. */
struct KvArm
{
    const char *name;
    KVCacheMode mode;
    bool fused;
};

const KvArm kFp32{"fp32", KVCacheMode::Fp32, false};
const KvArm kTender{"tender", KVCacheMode::TenderQuantized, false};
const KvArm kFused{"tender_fused", KVCacheMode::TenderQuantized, true};

SchedulerOptions
schedulerOptions(const KernelContext &kc, const KvArm &arm, int max_batch,
                 int row_chunk = 16)
{
    SchedulerOptions o;
    o.maxBatch = max_batch;
    o.vocabSize = 256;
    o.decode.kernels = &kc;
    o.decode.cache.mode = arm.mode;
    o.decode.cache.tender.rowChunk = row_chunk;
    o.decode.fusedQuantKv = arm.fused;
    return o;
}

/** One timed run of a BatchScheduler or a ServeSession. */
struct Run
{
    double seconds = 0.0;
    int64_t tokens = 0; ///< what tokens_per_s counts
    size_t finished = 0; ///< requests that finished (all, if no faults)
    std::vector<std::vector<int>> tokensOf; ///< per request, submit order
    std::vector<ServeResult> served;        ///< session runs only
    SchedulerStats stats;
    BlockPoolStats pool; ///< at drain
    DecodePhaseTimes phases;
    LatencyStats interactive, batch; ///< session runs only
    bool settled = false;            ///< see settles()
    std::pair<int64_t, int64_t> faults; ///< fired: alloc, callback

    double tokensPerS() const { return double(tokens) / seconds; }
};

/** The audit every run ends with: refcounts consistent, every park
 *  undone and no block left parked, and once the prefix cache lets go,
 *  every block and reservation back in the pool. */
bool
settles(BatchScheduler &s)
{
    const BlockPoolStats drained = s.poolStats();
    const bool parked_ok = s.pool().refcountsConsistent() &&
        drained.parkedBlocks == 0 && drained.parks == drained.unparks;
    if (s.prefixCache())
        s.prefixCache()->clear();
    const BlockPoolStats ps = s.poolStats();
    return parked_ok && ps.allocatedBlocks == 0 && ps.reservedBlocks == 0 &&
        ps.sharedBlocks == 0 && s.pool().refcountsConsistent();
}

using SubmitHook = std::function<void(BatchScheduler &, const GenRequest &)>;

/** Submit `requests` (through `submit` when given) and drain. */
Run
runScheduler(SyntheticModel &model, SchedulerOptions options,
             const std::vector<GenRequest> &requests,
             const SubmitHook &submit = {})
{
    Run run;
    options.decode.phases = &run.phases;
    BatchScheduler scheduler(model, options);
    const auto t0 = Clock::now();
    for (const GenRequest &r : requests) {
        if (submit)
            submit(scheduler, r);
        else
            scheduler.submit(r);
    }
    const std::vector<GenResult> results = scheduler.drain();
    run.seconds = bench::secondsSince(t0);
    TENDER_CHECK(results.size() == requests.size());
    for (const GenResult &r : results) // drain sorts by id
        run.tokensOf.push_back(r.tokens);
    run.finished = results.size();
    run.stats = scheduler.stats();
    run.tokens = run.stats.decodedTokens;
    run.pool = scheduler.poolStats();
    run.settled = settles(scheduler);
    return run;
}

/** Submits and steps a session; returns the ids whose results to keep. */
using Driver = std::function<std::vector<int>(ServeSession &)>;

/** Drive a fresh session and drain it; tokens_per_s counts the tokens of
 *  finished requests. */
Run
runSession(SyntheticModel &model, ServeSessionOptions options,
           const Driver &drive)
{
    Run run;
    options.scheduler.decode.phases = &run.phases;
    ServeSession session(model, options);
    const auto t0 = Clock::now();
    const std::vector<int> ids = drive(session);
    session.drain();
    run.seconds = bench::secondsSince(t0);
    for (const int id : ids) {
        TENDER_CHECK(session.result(id) != nullptr);
        run.served.push_back(*session.result(id));
        const ServeResult &r = run.served.back();
        run.tokensOf.push_back(r.tokens);
        if (r.state == RequestState::Finished) {
            ++run.finished;
            run.tokens += int64_t(r.tokens.size());
        }
    }
    run.stats = session.scheduler().stats();
    run.pool = session.poolStats();
    run.interactive = session.latency(Priority::Interactive);
    run.batch = session.latency(Priority::Batch);
    run.settled = settles(session.scheduler());
    return run;
}

std::vector<double>
tokensPerS(const std::vector<Run> &runs)
{
    std::vector<double> tps;
    for (const Run &r : runs)
        tps.push_back(r.tokensPerS());
    return tps;
}

/** Record an arm's rounds at `path`: median tokens_per_s with its range,
 *  then steps and phases of the median round, which it returns. */
const Run &
recordArm(JsonOut &out, const std::string &path,
          const std::vector<Run> &runs)
{
    const std::vector<double> tps = tokensPerS(runs);
    const Run &mid = runs[bench::medianIndex(tps)];
    out.spread(path + ".tokens_per_s", bench::spread(tps));
    out.set(path + ".steps", mid.stats.steps);
    const DecodePhaseTimes &p = mid.phases;
    out.set(path + ".phases_us.projections", p.projectionsUs);
    out.set(path + ".phases_us.append", p.appendUs);
    out.set(path + ".phases_us.history", p.historyUs);
    out.set(path + ".phases_us.attention", p.attentionUs);
    const double covered =
        p.projectionsUs + p.appendUs + p.historyUs + p.attentionUs;
    out.set(path + ".unattributed_frac", 1.0 - covered / (mid.seconds * 1e6));
    return mid;
}

/** Record the per-round tokens/s ratios a / b at `path`. */
void
recordRatio(JsonOut &out, const std::string &path,
            const std::vector<Run> &a, const std::vector<Run> &b)
{
    out.spread(path, bench::spread(bench::ratios(tokensPerS(a),
                                                 tokensPerS(b))));
}

void
recordLatency(JsonOut &out, const std::string &path, const LatencyStats &l)
{
    out.set(path + ".requests", l.requests);
    out.set(path + ".tokens", l.tokens);
    out.set(path + ".ttft_p50_us", l.ttftP50Us);
    out.set(path + ".ttft_p95_us", l.ttftP95Us);
    out.set(path + ".itl_p50_us", l.itlP50Us);
    out.set(path + ".itl_p95_us", l.itlP95Us);
    out.set(path + ".preemptions", l.preemptions);
}

/** True when every request of runs `a` and `b` finished, with the same
 *  tokens in both. */
bool
sameTokens(const Run &a, const Run &b)
{
    return a.tokensOf == b.tokensOf && a.finished == a.tokensOf.size() &&
        b.finished == b.tokensOf.size();
}

bool
sameTokensEveryRound(const std::vector<Run> &a, const std::vector<Run> &b)
{
    for (size_t r = 0; r < a.size(); ++r)
        if (!sameTokens(a[r], b[r]))
            return false;
    return true;
}

bool
allSettled(const std::vector<std::vector<Run>> &runs)
{
    for (const std::vector<Run> &arm : runs)
        for (const Run &r : arm)
            if (!r.settled)
                return false;
    return true;
}

// ---- Workloads ------------------------------------------------------------

std::vector<GenRequest>
batchRequests(int batch, int prompt_len, int new_tokens)
{
    std::vector<GenRequest> requests;
    for (int id = 0; id < batch; ++id) {
        GenRequest r;
        r.id = id;
        for (int t = 0; t < prompt_len; ++t)
            r.promptTokens.push_back((id * 37 + t * 13) % 256);
        r.maxNewTokens = new_tokens;
        requests.push_back(r);
    }
    return requests;
}

/** Mixed-length requests whose slots turn over continuously. */
struct ChurnSpec
{
    int maxBatch = 8;
    int rowChunk = 16;
    std::vector<GenRequest> requests;
    int maxRequestTokens = 0; ///< largest prompt + new - 1, chunk-rounded
};

ChurnSpec
churnSpec(bool smoke)
{
    ChurnSpec spec;
    spec.maxBatch = smoke ? 4 : 8;
    const int n_requests = smoke ? 10 : 24;
    const int prompts[] = {8, 24, 48};
    const int budgets[] = {8, 40};
    for (int id = 0; id < n_requests; ++id) {
        GenRequest r;
        r.id = id;
        const int prompt = prompts[id % 3] / (smoke ? 2 : 1);
        const int budget = budgets[id % 2] / (smoke ? 2 : 1);
        for (int t = 0; t < prompt; ++t)
            r.promptTokens.push_back((id * 31 + t * 7) % 256);
        r.maxNewTokens = budget;
        spec.requests.push_back(r);
        spec.maxRequestTokens =
            std::max(spec.maxRequestTokens, prompt + budget - 1);
    }
    spec.maxRequestTokens =
        (spec.maxRequestTokens + spec.rowChunk - 1) / spec.rowChunk *
        spec.rowChunk;
    return spec;
}

/** A leader whose prompt covers the system prompt with whole blocks plus
 *  followers that share it and diverge in short private suffixes (kept
 *  short so their own inserts deduplicate against the leader's entry
 *  instead of pinning new blocks). blockTokens is 16 with rowChunk 8, so
 *  the fp32 arm COW-faults on the mid-block divergence row and the
 *  quantized arm on the chunk-aligned mid-page match. */
struct PrefixSpec
{
    int sysLen = 40;
    int maxBatch = 4;
    std::vector<GenRequest> requests; ///< leader first
};

PrefixSpec
prefixSpec(bool smoke)
{
    PrefixSpec spec;
    spec.sysLen = smoke ? 24 : 40;
    spec.maxBatch = smoke ? 3 : 4;
    const int followers = smoke ? 6 : 10;
    const int new_tokens = smoke ? 5 : 8;
    std::vector<int> sys;
    for (int t = 0; t < spec.sysLen; ++t)
        sys.push_back((11 + t * 3) % 256);
    GenRequest leader;
    leader.id = 0;
    leader.promptTokens = sys;
    for (int t = 0; t < 8; ++t)
        leader.promptTokens.push_back((90 + t) % 256);
    leader.maxNewTokens = new_tokens;
    spec.requests.push_back(leader);
    for (int id = 1; id <= followers; ++id) {
        GenRequest r;
        r.id = id;
        r.promptTokens = sys;
        const int suffix = 3 + (id - 1) % 5;
        for (int t = 0; t < suffix; ++t)
            r.promptTokens.push_back((130 + id * 11 + t) % 256);
        r.maxNewTokens = new_tokens;
        spec.requests.push_back(r);
    }
    return spec;
}

/** Adopted quantized pages must read bit-identically to a cold cache that
 *  computed the same rows itself: same chunk codes, scale tables, biases,
 *  groups — the codes-on-page half of prefix_reuse_bitexact. */
bool
sharedPagesBitIdentical(const ModelConfig &config)
{
    KVCacheConfig qc;
    qc.mode = KVCacheMode::TenderQuantized;
    qc.tender.rowChunk = 8;
    qc.blockTokens = 16;
    BlockAllocator pool(blockPoolConfigFor(config, qc, 0));
    PrefixCache prefix(config, qc, &pool);
    Rng rng(123);
    const int rows = 48;
    const int cols = config.kvHeads * config.headDim();
    const Matrix k = randomGaussian(rows, cols, rng);
    const Matrix v = randomGaussian(rows, cols, rng);
    KVCache donor(config, qc, &pool);
    for (int l = 0; l < config.nLayers; ++l)
        donor.append(l, k, v);
    std::vector<int> tokens;
    for (int t = 0; t < rows; ++t)
        tokens.push_back(t);
    prefix.insert(tokens, donor);
    std::vector<int> prompt = tokens;
    prompt.push_back(999);
    const PrefixMatch m = prefix.match(prompt);
    if (m.rows != rows)
        return false;
    KVCache adopted(config, qc, &pool);
    prefix.adopt(m, adopted);
    KVCache cold(config, qc, &pool);
    for (int l = 0; l < config.nLayers; ++l)
        cold.append(l, k, v);
    for (int l = 0; l < config.nLayers; ++l)
        for (int h = 0; h < config.kvHeads; ++h)
            for (const bool value : {false, true}) {
                const KVCodeView a = value ? adopted.valueView(l, h)
                                           : adopted.keyView(l, h);
                const KVCodeView c = value ? cold.valueView(l, h)
                                           : cold.keyView(l, h);
                if (a.frozen.size() != c.frozen.size())
                    return false;
                for (size_t i = 0; i < a.frozen.size(); ++i) {
                    const QuantizedChunk &qa = *a.frozen[i];
                    const QuantizedChunk &qc2 = *c.frozen[i];
                    if (!(qa.codes == qc2.codes) || qa.bits != qc2.bits ||
                        qa.meta.scale != qc2.meta.scale ||
                        qa.meta.bias != qc2.meta.bias ||
                        qa.meta.group != qc2.meta.group)
                        return false;
                }
            }
    return true;
}

/** Chat turns (interactive, shared system prompt, sampled), long-document
 *  prefills (batch class, long unique prompts, short budgets), and short
 *  completions (interactive, sampled) in one pot — prefix hits, pool
 *  pressure, priority overtakes, and seeded sampling all at once. */
struct TrafficSpec
{
    int maxBatch = 4;
    size_t poolBlocks = 0;
    int chat = 0, longDoc = 0, shortCompl = 0;
    std::vector<ServeRequest> requests;
};

TrafficSpec
trafficSpec(const ModelConfig &config, const KVCacheConfig &cache,
            bool smoke)
{
    TrafficSpec spec;
    spec.maxBatch = smoke ? 3 : 4;
    spec.chat = smoke ? 4 : 8;
    spec.longDoc = smoke ? 2 : 4;
    spec.shortCompl = smoke ? 4 : 8;

    std::vector<int> sys;
    for (int t = 0; t < (smoke ? 16 : 32); ++t)
        sys.push_back((17 + t * 5) % 256);
    const int doc_len = smoke ? 48 : 96;

    int max_tokens = 0;
    auto add = [&](ServeRequest r) {
        max_tokens = std::max(
            max_tokens, int(r.promptTokens.size()) + r.maxNewTokens - 1);
        spec.requests.push_back(std::move(r));
    };
    // Interleave the classes the way independent clients would arrive.
    for (int i = 0;
         i < std::max(spec.chat, std::max(spec.longDoc, spec.shortCompl));
         ++i) {
        if (i < spec.chat) {
            ServeRequest r;
            r.promptTokens = sys;
            for (int t = 0; t < 5 + i % 4; ++t)
                r.promptTokens.push_back((60 + i * 13 + t) % 256);
            r.maxNewTokens = smoke ? 6 : 10;
            r.priority = Priority::Interactive;
            r.sampling.temperature = 0.8f;
            r.sampling.topK = 20;
            r.sampling.topP = 0.95f;
            r.sampling.seed = 100 + uint64_t(i);
            add(std::move(r));
        }
        if (i < spec.longDoc) {
            ServeRequest r;
            for (int t = 0; t < doc_len; ++t)
                r.promptTokens.push_back((i * 41 + t * 3) % 256);
            r.maxNewTokens = smoke ? 3 : 4; // summarize: long in, short out
            r.priority = Priority::Batch;   // greedy (temperature 0)
            add(std::move(r));
        }
        if (i < spec.shortCompl) {
            ServeRequest r;
            for (int t = 0; t < 4; ++t)
                r.promptTokens.push_back((200 + i * 7 + t) % 256);
            r.maxNewTokens = smoke ? 4 : 6;
            r.priority = Priority::Interactive;
            r.sampling.temperature = 1.0f;
            r.sampling.topK = 8;
            r.sampling.seed = 500 + uint64_t(i);
            add(std::move(r));
        }
    }
    // Pool sized to roughly half the batch's worst case: admission feels
    // real pressure (deferrals, reservations) without ever rejecting.
    const size_t worst =
        KVCache::blocksForTokens(config, cache, max_tokens);
    spec.poolBlocks = worst * size_t(spec.maxBatch) / 2 + worst;
    return spec;
}

ServeSessionOptions
trafficOptions(const KernelContext &kc, const TrafficSpec &spec,
               int max_batch)
{
    ServeSessionOptions o;
    o.scheduler.maxBatch = max_batch;
    o.scheduler.vocabSize = 256;
    o.scheduler.decode.kernels = &kc;
    o.scheduler.decode.cache.blockTokens = 16;
    o.scheduler.kvPoolBlocks = spec.poolBlocks;
    o.scheduler.prefixCache = true;
    return o;
}

/** Submit every request, in spec order or reversed; ids in spec order. */
Driver
submitAll(const std::vector<ServeRequest> &requests, bool reversed)
{
    return [&requests, reversed](ServeSession &s) {
        std::vector<int> ids(requests.size(), -1);
        for (size_t i = 0; i < requests.size(); ++i) {
            const size_t at = reversed ? requests.size() - 1 - i : i;
            ids[at] = s.submit(requests[at]);
        }
        return ids;
    };
}

/** Batch-class requests with long budgets fill a bounded pool; a burst of
 *  sampled Interactive requests arrives a few steps later. With
 *  maxPreemptions off they wait for a Batch request to run its budget
 *  down; with it on, the scheduler freezes a victim (parking its KV in
 *  the prefix cache) to seat them now. The off arm doubles as the
 *  uninterrupted reference for the preempt_resume_bitexact gate. */
struct PressureSpec
{
    int maxBatch = 4;
    size_t poolBlocks = 0;
    int warmSteps = 4;
    std::vector<ServeRequest> batchReqs;    ///< submitted first
    std::vector<ServeRequest> interactive;  ///< submitted after warmSteps
};

PressureSpec
pressureSpec(const ModelConfig &config, const KVCacheConfig &cache,
             bool smoke)
{
    PressureSpec spec;
    const int n_batch = smoke ? 2 : 3;
    const int n_inter = smoke ? 3 : 4;
    // One slot stays free: admission is blocked by the pool alone, so the
    // scenario isolates preemption from simple slot turnover.
    spec.maxBatch = n_batch + 1;
    // By the freeze the victims hold 16-17 cache rows: one complete
    // 16-row block beyond what their own prefill published (the 12-token
    // prompt rounds down to zero complete blocks), so parking has real
    // pages to keep and the resume readopts them.
    spec.warmSteps = smoke ? 5 : 6;
    const int b_prompt = 12;
    const int b_budget = smoke ? 20 : 40;
    for (int i = 0; i < n_batch; ++i) {
        ServeRequest r;
        for (int t = 0; t < b_prompt; ++t)
            r.promptTokens.push_back((i * 29 + t * 5) % 256);
        r.maxNewTokens = b_budget;
        r.priority = Priority::Batch; // greedy
        spec.batchReqs.push_back(r);
    }
    const int i_prompt = 5;
    const int i_budget = smoke ? 4 : 6;
    for (int i = 0; i < n_inter; ++i) {
        ServeRequest r;
        for (int t = 0; t < i_prompt; ++t)
            r.promptTokens.push_back((150 + i * 17 + t) % 256);
        r.maxNewTokens = i_budget;
        r.priority = Priority::Interactive;
        r.sampling.temperature = 0.9f;
        r.sampling.topK = 16;
        r.sampling.topP = 0.95f;
        r.sampling.seed = 900 + uint64_t(i);
        spec.interactive.push_back(r);
    }
    const size_t worst_b = KVCache::blocksForTokens(
        config, cache, b_prompt + b_budget - 1);
    const size_t worst_i = KVCache::blocksForTokens(
        config, cache, i_prompt + i_budget - 1);
    // Every Batch reservation fits, and one interactive reservation is
    // exactly one block short — blocks must come back before it seats.
    spec.poolBlocks = worst_b * size_t(n_batch) + worst_i - 1;
    return spec;
}

/** Repetitive-suffix workload: prompts whose greedy continuation the
 *  prompt-lookup drafter can latch onto (each request a different short
 *  cycle), the regime speculation exists to accelerate — agentic and
 *  template-heavy decode where the continuation echoes the context. */
std::vector<GenRequest>
specWorkload(int batch, int prompt_len, int new_tokens, DrafterKind drafter,
             int max_draft)
{
    std::vector<GenRequest> requests;
    for (int id = 0; id < batch; ++id) {
        GenRequest r;
        r.id = id;
        const int period = 2 + id % 3;
        for (int t = 0; t < prompt_len; ++t)
            r.promptTokens.push_back(3 + id * 5 + t % period);
        r.maxNewTokens = new_tokens;
        r.speculation.drafter = drafter;
        r.speculation.maxDraft = max_draft;
        requests.push_back(r);
    }
    return requests;
}

// ---- Untimed invariants ---------------------------------------------------

/** Teacher-forced decode of `input` under `base` on `kc` (prefill 8
 *  rows, then row at a time). */
Matrix
teacherForcedDecode(SyntheticModel &model, const Matrix &input,
                    const DecodeOptions &base, const KernelContext &kc)
{
    DecodeOptions options = base;
    options.kernels = &kc;
    DecodeEngine engine(model, options);
    Matrix out = engine.prefill(input.rowSlice(0, 8));
    for (int r = 8; r < input.rows(); ++r) {
        const Matrix h = engine.step(input.rowSlice(r, r + 1));
        out.resizeRows(r + 1);
        std::copy(h.rowPtr(0), h.rowPtr(0) + h.cols(), out.rowPtr(r));
    }
    return out;
}

/** MQ-panel decode vs per-head decode over every KV mode for one model. */
bool
mqPanelBitExactFor(SyntheticModel &model, const KernelContext &kc)
{
    const Matrix input = model.sampleInput(20, 7);
    DecodeOptions fp32;
    DecodeOptions quant;
    quant.cache.mode = KVCacheMode::TenderQuantized;
    quant.cache.tender.rowChunk = 8;
    DecodeOptions fused = quant;
    fused.fusedQuantKv = true;
    for (const DecodeOptions &base : {fp32, quant, fused}) {
        DecodeOptions mq_on = base, mq_off = base;
        mq_on.mqAttentionPanels = true;
        mq_off.mqAttentionPanels = false;
        if (maxAbsDiff(teacherForcedDecode(model, input, mq_on, kc),
                       teacherForcedDecode(model, input, mq_off, kc)) !=
            0.f)
            return false;
    }
    return true;
}

/** The correctness block. The reference forward runs on the decode's own
 *  context: the packed arm is NMSE-gated (not bit-parity) against the
 *  golden kernels, so comparing like with like keeps
 *  fp32_decode_bit_exact a pure decode-vs-prefill invariant. */
void
recordCorrectness(JsonOut &out, SyntheticModel &model,
                  SyntheticModel &gqa_model, const KernelContext &kc)
{
    const Matrix input = model.sampleInput(24, 3);
    const Matrix full = modelForward(model, input, &kc);
    const Matrix fp32 = teacherForcedDecode(model, input, {}, kc);
    out.flag("correctness.fp32_decode_bit_exact",
             maxAbsDiff(full, fp32) == 0.f);

    DecodeOptions quant;
    quant.cache.mode = KVCacheMode::TenderQuantized;
    quant.cache.tender.rowChunk = 16;
    const Matrix dequant = teacherForcedDecode(model, input, quant, kc);
    DecodeOptions fused = quant;
    fused.fusedQuantKv = true;
    const double bound = 2e-3;
    const std::pair<const char *, double> nmses[] = {
        {"correctness.tender_kv_nmse", nmse(fp32, dequant)},
        // Fused vs the dequantize oracle on the same cache: the fused
        // path's own error (query quantization on frozen chunks).
        {"correctness.fused_attention_nmse",
         nmse(dequant, teacherForcedDecode(model, input, fused, kc))}};
    for (const auto &[path, value] : nmses) {
        out.set(path, value);
        out.set(std::string(path) + "_bound", bound);
        out.gate(path, value >= 0.0 && value <= bound);
    }
    out.flag("correctness.mq_panel_bitexact",
             mqPanelBitExactFor(model, kc) &&
                 mqPanelBitExactFor(gqa_model, kc));
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::vector<const char *> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            positional.push_back(argv[i]);
    }
    const int hw = std::max(1, int(std::thread::hardware_concurrency()));
    const int prompt_len =
        positional.size() > 0 ? std::atoi(positional[0]) : (smoke ? 8 : 16);
    const int new_tokens =
        positional.size() > 1 ? std::atoi(positional[1]) : (smoke ? 6 : 32);
    const int workers = positional.size() > 2
        ? std::atoi(positional[2])
        : (smoke ? std::min(2, hw) : hw);
    const char *out_path =
        positional.size() > 3 ? positional[3] : "BENCH_decode.json";
    // Runs take milliseconds and the host's speed drifts between them,
    // so medians need several rounds.
    const int n_rounds = smoke ? 5 : 9;

    const ModelConfig config = replicaOf(modelByName("OPT-6.7B"), 32);
    SyntheticModel model(config, 5);
    // GQA shape for the multi-query panel section: 4 query heads share
    // each kv head, so the panel batching has real work to amortize.
    const ModelConfig gqa_config = replicaOf(modelByName("Llama-2-70B"), 64);
    SyntheticModel gqa_model(gqa_config, 7);
    KernelContext kc(Backend::Packed, workers);

    JsonOut out;
    out.set("model.name", config.name);
    out.set("model.d_model", config.dModel);
    out.set("model.n_heads", config.nHeads);
    out.set("model.n_layers", config.nLayers);
    out.set("model.d_ffn", config.dFfn);
    out.set("smoke", smoke);
    out.set("prompt_tokens", prompt_len);
    out.set("new_tokens_per_request", new_tokens);
    out.set("workers", workers);
    out.set("hardware_threads", hw);
    out.set("rounds", n_rounds);
    out.set("backend", backendName(kc.backend()));
    out.set("simd", simdDescription());
    // TENDER_BACKEND / TENDER_NUM_THREADS as this process resolved them.
    out.set("default_backend", backendName(defaultKernels().backend()));
    out.set("default_workers", defaultKernels().workers());
    // Machine-speed reference for check_bench.py's baseline comparison.
    out.set("calibration.workload", bench::kCalibrationWorkload);
    out.set("calibration.score_mflops", bench::calibrationScoreMflops());

    // Warm the lazily generated weights out of the measurement.
    runScheduler(model, schedulerOptions(kc, kFp32, 1),
                 batchRequests(1, prompt_len, 2));
    runScheduler(gqa_model, schedulerOptions(kc, kFp32, 1),
                 batchRequests(1, prompt_len, 2));

    // ---- Continuous batching: every batch size in every KV arm. -------
    const std::vector<int> batches =
        smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 16};
    const KvArm kv_arms[] = {kFp32, kTender, kFused};
    const char *kv_keys[] = {"fp32_kv", "tender_kv", "tender_kv_fused"};
    std::vector<std::function<Run()>> arms;
    for (const KvArm &arm : kv_arms)
        for (const int b : batches)
            arms.push_back([&, arm, b] {
                return runScheduler(model, schedulerOptions(kc, arm, b),
                                    batchRequests(b, prompt_len, new_tokens));
            });
    const auto batch_runs = bench::rounds(n_rounds, arms);
    const auto at = [&](int arm, size_t batch) -> const std::vector<Run> & {
        return batch_runs[size_t(arm) * batches.size() + batch];
    };
    for (int a = 0; a < 3; ++a) {
        // One request's cache footprint at the end of its run.
        DecodeEngine engine(model, schedulerOptions(kc, kv_arms[a], 1).decode);
        engine.prefill(model.sampleInput(prompt_len + new_tokens - 1, 1));
        const size_t bytes = engine.cache().storedBytes();
        for (size_t i = 0; i < batches.size(); ++i) {
            const std::string path = std::string(kv_keys[a]) + ".batch_" +
                std::to_string(batches[i]);
            recordArm(out, path, at(a, i));
            out.set(path + ".cache_bytes_per_request", bytes);
        }
    }
    const size_t last = batches.size() - 1;
    recordRatio(out, "fused_over_dequant_tokens_ratio", at(2, last),
                at(1, last));
    for (size_t i = 1; i < batches.size(); ++i)
        recordRatio(out,
                    "fp32_batched_speedup.batch_" +
                        std::to_string(batches[i]),
                    at(0, i), at(0, 0));

    // ---- GQA multi-query panels on vs off, at the largest batch. ------
    const int mq_batch = batches.back();
    out.set("mq_panels.model", gqa_config.name);
    out.set("mq_panels.q_heads_per_kv_head",
            gqa_config.nHeads / gqa_config.kvHeads);
    out.set("mq_panels.batch", mq_batch);
    arms.clear();
    for (const KvArm &arm : {kFp32, kFused})
        for (const bool mq : {true, false})
            arms.push_back([&, arm, mq] {
                SchedulerOptions o = schedulerOptions(kc, arm, mq_batch);
                o.decode.mqAttentionPanels = mq;
                return runScheduler(
                    gqa_model, o,
                    batchRequests(mq_batch, prompt_len, new_tokens));
            });
    const auto mq_runs = bench::rounds(n_rounds, arms);
    for (size_t a = 0; a < 2; ++a) {
        const std::string path = a == 0 ? "mq_panels.fp32_kv"
                                        : "mq_panels.tender_kv_fused";
        recordArm(out, path + ".on", mq_runs[2 * a]);
        recordArm(out, path + ".off", mq_runs[2 * a + 1]);
        recordRatio(out, path + ".ratio", mq_runs[2 * a], mq_runs[2 * a + 1]);
    }

    // ---- Churned mixed batch: paged blocks vs per-request slabs. ------
    // Both arms run the same paged machinery; the contiguous arm sets
    // blockTokens to the largest request's footprint, so every store
    // holds one slab-sized block, which is what contiguous preallocation
    // commits. Chunk size, and so the numerics, is the same either way.
    const ChurnSpec churn = churnSpec(smoke);
    arms.clear();
    for (const KvArm &arm : {kFp32, kTender})
        for (const bool paged : {true, false})
            arms.push_back([&, arm, paged] {
                SchedulerOptions o =
                    schedulerOptions(kc, arm, churn.maxBatch, churn.rowChunk);
                o.decode.cache.blockTokens =
                    paged ? churn.rowChunk : churn.maxRequestTokens;
                return runScheduler(model, o, churn.requests);
            });
    const auto churn_runs = bench::rounds(n_rounds, arms);
    for (size_t a = 0; a < 2; ++a) {
        const std::string path = a == 0 ? "churn_fp32" : "churn_tender";
        double peak[2];
        for (size_t side = 0; side < 2; ++side) {
            const std::string arm_path =
                path + (side == 0 ? ".paged" : ".contiguous");
            const BlockPoolStats &pool =
                recordArm(out, arm_path, churn_runs[2 * a + side]).pool;
            peak[side] = double(pool.peakAllocatedBytes());
            out.set(arm_path + ".peak_kv_bytes", pool.peakAllocatedBytes());
            out.set(arm_path + ".peak_committed_bytes",
                    pool.peakCommittedBytes());
            out.set(arm_path + ".block_tokens", pool.blockTokens);
            out.set(arm_path + ".created_blocks", pool.createdBlocks);
            out.set(arm_path + ".allocations", pool.allocations);
            out.set(arm_path + ".reuses", pool.reuses);
        }
        out.set(path + ".peak_kv_bytes_ratio", peak[1] / peak[0]);
        out.gate(path + ".peak_kv_bytes_ratio", peak[1] / peak[0] > 1.0);
        recordRatio(out, path + ".tokens_per_s_ratio", churn_runs[2 * a],
                    churn_runs[2 * a + 1]);
    }

    // ---- Shared system prompt: COW prefix caching on vs off. ----------
    // The leader's prefill publishes the system prompt before the
    // followers arrive, the serving pattern prefix caching exists for.
    const PrefixSpec prefix = prefixSpec(smoke);
    const SubmitHook lead_first = [](BatchScheduler &s, const GenRequest &r) {
        s.submit(r);
        if (r.id == 0)
            s.step();
    };
    out.set("prefix_shared.system_prompt_tokens", prefix.sysLen);
    out.set("prefix_shared.requests", prefix.requests.size());
    arms.clear();
    for (const KvArm &arm : {kFp32, kTender})
        for (const bool sharing : {true, false})
            arms.push_back([&, arm, sharing] {
                SchedulerOptions o =
                    schedulerOptions(kc, arm, prefix.maxBatch, 8);
                o.decode.cache.blockTokens = 16;
                o.prefixCache = sharing;
                return runScheduler(model, o, prefix.requests, lead_first);
            });
    const auto prefix_runs = bench::rounds(n_rounds, arms);
    bool prefix_bitexact = sharedPagesBitIdentical(config);
    for (size_t a = 0; a < 2; ++a) {
        const std::string path = a == 0 ? "prefix_shared.fp32"
                                        : "prefix_shared.tender";
        const std::vector<Run> &shared = prefix_runs[2 * a];
        const std::vector<Run> &cold = prefix_runs[2 * a + 1];
        prefix_bitexact =
            prefix_bitexact && sameTokensEveryRound(shared, cold);
        const Run &s = recordArm(out, path + ".shared", shared);
        const Run &c = recordArm(out, path + ".cold", cold);
        out.set(path + ".shared.peak_kv_bytes", s.pool.peakAllocatedBytes());
        out.set(path + ".shared.prefill_rows_skipped",
                s.stats.prefillSkippedRows);
        out.set(path + ".shared.prefix_hits", s.stats.prefixHits);
        out.set(path + ".shared.cow_copies", s.pool.cowCopies);
        out.set(path + ".shared.shares", s.pool.shares);
        out.set(path + ".cold.peak_kv_bytes", c.pool.peakAllocatedBytes());
        out.set(path + ".peak_kv_bytes_ratio",
                double(c.pool.peakAllocatedBytes()) /
                    double(s.pool.peakAllocatedBytes()));
        recordRatio(out, path + ".tokens_per_s_ratio", shared, cold);
    }
    out.flag("prefix_shared.prefix_reuse_bitexact", prefix_bitexact);
    out.flag("prefix_shared.refcounts_consistent", allSettled(prefix_runs));

    // ---- Mixed serving traffic through the front end. -----------------
    KVCacheConfig traffic_cache;
    traffic_cache.blockTokens = 16;
    const TrafficSpec traffic = trafficSpec(config, traffic_cache, smoke);
    out.set("mixed_traffic.requests", traffic.requests.size());
    out.set("mixed_traffic.chat", traffic.chat);
    out.set("mixed_traffic.long_doc", traffic.longDoc);
    out.set("mixed_traffic.short_completion", traffic.shortCompl);
    out.set("mixed_traffic.max_batch", traffic.maxBatch);
    out.set("mixed_traffic.kv_pool_blocks", traffic.poolBlocks);
    const std::vector<Run> traffic_runs =
        bench::rounds(n_rounds,
                      std::vector<std::function<Run()>>{[&] {
                          return runSession(
                              model,
                              trafficOptions(kc, traffic, traffic.maxBatch),
                              submitAll(traffic.requests, false));
                      }})
            .front();
    const Run &tmid = recordArm(out, "mixed_traffic", traffic_runs);
    out.set("mixed_traffic.prefix_hits", tmid.stats.prefixHits);
    out.set("mixed_traffic.deferred", tmid.stats.deferred);
    out.set("mixed_traffic.overtakes", tmid.stats.overtakes);
    recordLatency(out, "mixed_traffic.interactive", tmid.interactive);
    recordLatency(out, "mixed_traffic.batch", tmid.batch);
    // Untimed reruns: reversed admission, a smaller batch cap, and another
    // worker count must sample every request's tokens identically.
    const KernelContext alt(kc.backend(), std::max(1, kc.workers() / 2) + 1);
    const Run reruns[] = {
        runSession(model, trafficOptions(kc, traffic, traffic.maxBatch),
                   submitAll(traffic.requests, true)),
        runSession(model,
                   trafficOptions(kc, traffic,
                                  std::max(1, traffic.maxBatch - 1)),
                   submitAll(traffic.requests, false)),
        runSession(model, trafficOptions(alt, traffic, traffic.maxBatch + 2),
                   submitAll(traffic.requests, true))};
    bool order_independent = true;
    for (const Run &timed : traffic_runs)
        for (const Run &rerun : reruns)
            order_independent = order_independent && sameTokens(timed, rerun);
    out.flag("mixed_traffic.sampling_order_independent", order_independent);

    // ---- Preemption under pool pressure: on vs off. -------------------
    // The off arm runs every request uninterrupted, so token equality
    // across arms is the freeze/park/resume contract.
    const PressureSpec pressure = pressureSpec(config, traffic_cache, smoke);
    out.set("preemption_pressure.batch_requests", pressure.batchReqs.size());
    out.set("preemption_pressure.interactive_requests",
            pressure.interactive.size());
    out.set("preemption_pressure.max_batch", pressure.maxBatch);
    out.set("preemption_pressure.kv_pool_blocks", pressure.poolBlocks);
    out.set("preemption_pressure.warm_steps", pressure.warmSteps);
    out.set("preemption_pressure.max_preemptions", 2);
    const Driver pressure_driver = [&](ServeSession &s) {
        std::vector<int> ids;
        for (const ServeRequest &r : pressure.batchReqs)
            ids.push_back(s.submit(r));
        for (int i = 0; i < pressure.warmSteps; ++i)
            s.step();
        for (const ServeRequest &r : pressure.interactive)
            ids.push_back(s.submit(r));
        return ids;
    };
    arms.clear();
    for (const KvArm &arm : {kFp32, kTender})
        for (const int max_preemptions : {2, 0})
            arms.push_back([&, arm, max_preemptions] {
                ServeSessionOptions o;
                o.scheduler = schedulerOptions(kc, arm, pressure.maxBatch);
                o.scheduler.decode.cache.blockTokens = 16;
                o.scheduler.kvPoolBlocks = pressure.poolBlocks;
                o.scheduler.prefixCache = true;
                o.scheduler.maxPreemptions = max_preemptions;
                return runSession(model, o, pressure_driver);
            });
    const auto pressure_runs = bench::rounds(n_rounds, arms);
    bool preempt_bitexact = true;
    for (size_t a = 0; a < 2; ++a) {
        const std::string path = a == 0 ? "preemption_pressure.fp32"
                                        : "preemption_pressure.tender";
        const std::vector<Run> &on = pressure_runs[2 * a];
        const std::vector<Run> &off = pressure_runs[2 * a + 1];
        bool preempted = true;
        for (size_t r = 0; r < on.size(); ++r) {
            preempted = preempted && on[r].stats.preemptions > 0;
            preempt_bitexact =
                preempt_bitexact && off[r].stats.preemptions == 0;
        }
        preempt_bitexact =
            preempt_bitexact && preempted && sameTokensEveryRound(on, off);
        out.gate(path + ".on.preemptions", preempted);
        for (const bool is_on : {true, false}) {
            const std::string side = path + (is_on ? ".on" : ".off");
            const Run &mid = recordArm(out, side, is_on ? on : off);
            out.set(side + ".preemptions", mid.stats.preemptions);
            out.set(side + ".resumes", mid.stats.resumes);
            out.set(side + ".resumed_rows_reused",
                    mid.stats.resumedRowsReused);
            out.set(side + ".deferred", mid.stats.deferred);
            recordLatency(out, side + ".interactive", mid.interactive);
            recordLatency(out, side + ".batch", mid.batch);
        }
        recordRatio(out, path + ".tokens_per_s_ratio", on, off);
    }
    out.flag("preemption_pressure.preempt_resume_bitexact", preempt_bitexact);
    out.flag("preemption_pressure.refcounts_consistent",
             allSettled(pressure_runs));

    // ---- Fault churn: the mixed traffic under a seeded fault plan. ----
    // Injected KV-allocation failures, throwing streaming callbacks and
    // step stalls, plus a queue bound that sheds the last two submissions
    // and two requests whose 1 us deadline expires before admission. The
    // prefix cache is on in the fp32 arm only.
    const std::string plan = FaultInjector::randomPlan(
        2024,
        {FaultSite::AllocFail, FaultSite::CallbackThrow,
         FaultSite::StepLatency},
        /*triggers=*/8, /*maxNth=*/60, /*latencyUs=*/300);
    out.set("fault_churn.requests", traffic.requests.size());
    out.set("fault_churn.doomed_requests", 2);
    out.set("fault_churn.max_batch", traffic.maxBatch);
    out.set("fault_churn.plan", plan);
    const auto fault_session = [&](const KvArm &arm, bool shed) {
        ServeSessionOptions o = trafficOptions(kc, traffic, traffic.maxBatch);
        o.scheduler.decode.cache.mode = arm.mode;
        o.scheduler.decode.cache.tender.rowChunk = 16;
        o.scheduler.decode.fusedQuantKv = arm.fused;
        o.scheduler.prefixCache = arm.mode == KVCacheMode::Fp32;
        // The two doomed requests occupy two queue slots before the
        // workload arrives and nothing is admitted before the first step,
        // so this bound sheds exactly the last two submissions.
        if (shed)
            o.scheduler.maxQueueDepth = int(traffic.requests.size());
        return runSession(model, o, [&, shed](ServeSession &s) {
            std::vector<int> doomed;
            for (int i = 0; shed && i < 2; ++i) {
                ServeRequest r = traffic.requests[size_t(i)];
                r.deadlineUs = 1;
                doomed.push_back(s.submit(r));
            }
            std::vector<int> ids;
            for (ServeRequest r : traffic.requests) {
                r.onEvent = [](const StreamEvent &) {}; // a callback site
                ids.push_back(s.submit(r));
            }
            ids.insert(ids.end(), doomed.begin(), doomed.end());
            return ids;
        });
    };
    const KvArm fault_arms[] = {kFp32, kTender, kFused};
    std::vector<Run> references; // fault-free, untimed
    FaultInjector::instance().disarm();
    for (const KvArm &arm : fault_arms)
        references.push_back(fault_session(arm, false));
    arms.clear();
    for (const KvArm &arm : fault_arms)
        arms.push_back([&, arm] {
            FaultInjector &injector = FaultInjector::instance();
            injector.arm(plan);
            Run run = fault_session(arm, true);
            run.faults = {injector.fired(FaultSite::AllocFail),
                          injector.fired(FaultSite::CallbackThrow)};
            injector.disarm();
            return run;
        });
    const auto fault_runs = bench::rounds(n_rounds, arms);
    bool isolated = true;
    bool fault_settled = allSettled(fault_runs);
    for (size_t a = 0; a < 3; ++a) {
        const Run &ref = references[a];
        fault_settled = fault_settled && ref.settled;
        isolated = isolated && ref.finished == ref.served.size();
        // A request the plan did not fail generates exactly the
        // fault-free run's tokens.
        for (const Run &chaos : fault_runs[a])
            for (size_t i = 0; i < ref.served.size(); ++i)
                isolated = isolated &&
                    (chaos.served[i].state != RequestState::Finished ||
                     chaos.served[i].tokens == ref.served[i].tokens);
        const std::string path =
            std::string("fault_churn.") + fault_arms[a].name;
        const Run &mid = recordArm(out, path, fault_runs[a]);
        int queue_full = 0, deadline = 0;
        for (const ServeResult &r : mid.served) {
            queue_full += r.failure == FailureReason::QueueOverflow;
            deadline += r.failure == FailureReason::DeadlineExceeded;
        }
        out.set(path + ".finished", mid.finished);
        out.set(path + ".failed", mid.served.size() - mid.finished);
        out.set(path + ".shed_queue_full", queue_full);
        out.set(path + ".shed_deadline", deadline);
        out.set(path + ".alloc_faults", mid.faults.first);
        out.set(path + ".callback_faults", mid.faults.second);
    }
    out.flag("fault_churn.fault_isolation_bitexact", isolated);
    out.flag("fault_churn.refcounts_consistent", fault_settled);

    // ---- Speculative decoding: prompt lookup vs plain decode. ---------
    const int spec_batch = 4;
    const int spec_prompt = smoke ? 12 : 24;
    const int spec_new = smoke ? 16 : 48;
    const int spec_ks[] = {2, 4, 8};
    out.set("spec_decode.batch", spec_batch);
    out.set("spec_decode.prompt_tokens", spec_prompt);
    out.set("spec_decode.new_tokens", spec_new);
    arms.clear();
    for (const KvArm &arm : kv_arms)
        for (const int k : {0, 2, 4, 8})
            arms.push_back([&, arm, k] {
                return runScheduler(
                    model, schedulerOptions(kc, arm, spec_batch),
                    specWorkload(spec_batch, spec_prompt, spec_new,
                                 k ? DrafterKind::PromptLookup
                                   : DrafterKind::None,
                                 k ? k : 4));
            });
    const auto spec_runs = bench::rounds(n_rounds, arms);
    bool spec_bitexact = true;
    for (int a = 0; a < 3; ++a) {
        const std::string path = std::string("spec_decode.") + kv_arms[a].name;
        const std::vector<Run> &plain = spec_runs[size_t(4 * a)];
        recordArm(out, path + ".plain", plain);
        for (int ki = 0; ki < 3; ++ki) {
            const std::vector<Run> &lookup = spec_runs[size_t(4 * a + 1 + ki)];
            spec_bitexact =
                spec_bitexact && sameTokensEveryRound(lookup, plain);
            const std::string kpath =
                path + ".prompt_lookup.k_" + std::to_string(spec_ks[ki]);
            const Run &mid = recordArm(out, kpath, lookup);
            const int64_t drafted = mid.stats.draftedTokens;
            const int64_t accepted = mid.stats.acceptedDraftTokens;
            out.set(kpath + ".acceptance",
                    drafted > 0 ? double(accepted) / double(drafted) : 0.0);
            out.set(kpath + ".drafted", drafted);
            out.set(kpath + ".accepted", accepted);
            recordRatio(out, kpath + ".speedup", lookup, plain);
        }
    }
    out.flag("spec_decode.spec_decode_bitexact", spec_bitexact);

    recordCorrectness(out, model, gqa_model, kc);
    return out.finish(out_path);
}
