/**
 * @file
 * Continuous-batching decode scheduler (the Orca-style iteration-level
 * scheduling the paper cites for restoring decode utilization,
 * Section VI-D).
 *
 * Requests are admitted and retired *per step*, not per batch: every
 * scheduler iteration stacks the pending rows of all active requests — a
 * freshly admitted request contributes its whole prompt (its prefill), an
 * established one contributes one row — into a single decodeStep(), so
 * the QKV/O/FFN projections of all requests share one GEMM each while
 * attention stays per request over its own KVCache (parallelized over the
 * thread pool by decodeBlockForward). A request that reaches its token
 * budget retires immediately and its batch slot is refilled on the next
 * step.
 *
 * Every per-request computation is row-local or cache-local, so the
 * generated tokens are independent of admission order, batch size, and
 * worker count — asserted by tests/test_runtime.cc — which is what makes
 * the scheduler safe to drive from an async serving frontend later.
 *
 * KV memory is paged: the scheduler owns one BlockAllocator and every
 * request's KVCache pages into it. Admission is reservation-gated — a
 * request is only admitted once its worst-case block count
 * (KVCache::blocksForTokens over prompt + maxNewTokens - 1) fits in the
 * pool, so appends mid-decode can never fail; otherwise it stays queued
 * (FIFO head, counted in stats().deferred) until retirements return
 * blocks to the free list. Retirement releases the request's blocks and
 * undrawn reservation automatically. Because admission timing never
 * changes what a request computes, a bounded pool changes *when* tokens
 * are generated, never *which* (tests/test_paged_kv.cc).
 *
 * With SchedulerOptions::prefixCache the scheduler also owns a
 * PrefixCache: every completed prefill publishes its leading complete
 * blocks, and admission matches the incoming prompt against the cached
 * prefixes first. On a hit the request adopts the shared blocks
 * (copy-on-write), contributes only its private suffix rows to the
 * prefill step (stats().prefillSkippedRows counts the rows served from
 * shared pages), and reserves only the suffix's worst-case footprint
 * (KVCache::blocksForSuffix). Under pool pressure cached prefixes are
 * evicted LRU before admission is deferred. Shared pages are
 * bit-identical to privately computed ones, so prefix caching never
 * changes which tokens a request generates — only how much prefill work
 * and KV memory it costs (tests/test_prefix_cache.cc).
 *
 * Serving hooks (src/serve/ is the client): requests carry a priority
 * class — Interactive admissions may overtake a waiting Batch FIFO head,
 * bounded by SchedulerOptions::maxHeadOvertakes so the head is delayed
 * but never starved — an optional decode override (the sampling seam: the
 * scheduler hands the stacked hidden states to the request instead of
 * greedy-argmaxing itself), a per-token callback that can finish the
 * request early (stop sequences), and an admission notification. cancel()
 * retires a request mid-flight, returning its KV blocks and undrawn
 * reservation to the pool. All of these move *when* work happens, never
 * what a request computes (tests/test_serving.cc).
 *
 * Mid-decode preemption (SchedulerOptions::maxPreemptions > 0, requires
 * the prefix cache): when a pending Interactive request cannot be
 * admitted — every batch slot taken or its KV reservation blocked by
 * pool pressure — the scheduler may freeze a running Batch request
 * instead of making the Interactive one wait out a long decode. The
 * victim's computed KV rows are already immutable pages (fp32 blocks, or
 * frozen quantized chunks; the open chunk is simply recomputed on resume,
 * because sealing a short chunk would move chunk boundaries and change
 * numerics), so freezing is publishing them through the existing
 * PrefixCache::insert / share() machinery, releasing the victim's blocks
 * and undrawn reservation, and re-queueing it at the FIFO head in a
 * Preempted state. Resume is ordinary re-admission: the effective prompt
 * is the original prompt plus every token generated so far, the parked
 * prefix is adopted via KVCache::adoptPrefix, and the rows past the last
 * complete parked block are recomputed as one prefill segment whose last
 * row reads out the next token. What a row computes depends only on its
 * position, never on which rows shared its step (the quantized-KV
 * contract of runtime/kv_cache.h), and shared pages read bit-identically,
 * so a preempted-and-resumed request generates exactly the tokens it
 * would have uninterrupted (tests/test_preemption.cc;
 * preempt_resume_bitexact in BENCH_decode.json). Victims are chosen
 * lowest-priority first, most blocks held among those, and each request
 * is preempted at most maxPreemptions times (anti-thrash); parked blocks
 * are tracked in BlockPoolStats::parkedBlocks.
 */

#ifndef TENDER_RUNTIME_BATCH_SCHEDULER_H
#define TENDER_RUNTIME_BATCH_SCHEDULER_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/decode_engine.h"
#include "runtime/draft.h"
#include "runtime/prefix_cache.h"

namespace tender {

/**
 * Admission priority class. Interactive requests may overtake Batch
 * requests waiting ahead of them in the queue — including a deferred FIFO
 * head whose KV reservation does not fit the pool yet — up to
 * SchedulerOptions::maxHeadOvertakes consecutive overtakes, after which
 * the head is admitted before any further overtaking (so a large Batch
 * request is delayed, never starved). Priority only moves admission
 * timing; per-request computation is scheduling-independent, so it never
 * changes which tokens a request generates.
 */
enum class Priority { Batch = 0, Interactive = 1 };

/** Why a request left the scheduler. */
enum class FinishReason
{
    Length,    ///< maxNewTokens generated
    Stopped,   ///< the onToken callback ended it (stop sequence, client EOF)
    Cancelled, ///< cancel() mid-flight
    /** The request failed: front-door validation or load shedding,
     *  a mid-flight fault (KV allocation failure, callback exception),
     *  or a missed deadline — GenResult::failure says which. Contained
     *  per request: co-scheduled requests' tokens are unaffected. */
    Failed,
};

const char *finishReasonName(FinishReason reason);

/** One generation request. */
struct GenRequest
{
    int id = 0;
    std::vector<int> promptTokens; ///< Vocab token ids
    int maxNewTokens = 1;
    Priority priority = Priority::Batch;
    /** Optional token readout override: given this request's 1 x vocab
     *  logits row (Vocab::logits of the hidden row it reads), return the
     *  next token id (the serving layer's sampling hook). Null = greedy
     *  Vocab::argmax of the same row. Must be a pure function of the
     *  logits row (plus request-owned state) so generated tokens stay
     *  independent of admission order, batch size, and worker count. */
    std::function<int(const Matrix &logits)> decode = nullptr;
    /** Optional per-token streaming callback, invoked in generation order
     *  right after each token is decoded. Returning false finishes the
     *  request (FinishReason::Stopped) before its budget — the stop-
     *  sequence / client-disconnect hook. */
    std::function<bool(int token)> onToken = nullptr;
    /** Optional admission notification (queued -> prefill transition;
     *  also fired when a preempted request is re-admitted). */
    std::function<void()> onAdmit = nullptr;
    /** Optional preemption notification: the request was frozen
     *  mid-decode and returned to the queue (decoding -> preempted). Its
     *  next onAdmit call is the resume. */
    std::function<void()> onPreempt = nullptr;
    /** Speculative decoding (docs/speculation.md): with a drafter
     *  selected, the scheduler stacks drafted tokens into multi-row
     *  verification steps and accepts the longest prefix agreeing with
     *  this request's own readout — emitted tokens are bit-identical to
     *  plain decode, only the step count changes. Incompatible with
     *  DecodeOptions::scheme (rejected at submit). */
    SpeculationParams speculation{};
};

/** One finished request. */
struct GenResult
{
    int id = 0;
    /** Decoded tokens: greedy unless GenRequest::decode overrode the
     *  readout. maxNewTokens long for FinishReason::Length; shorter when
     *  the request was stopped or cancelled mid-decode. */
    std::vector<int> tokens;
    int steps = 0; ///< scheduler iterations spent active
    FinishReason reason = FinishReason::Length;
    /** Structured cause when reason == Failed (None otherwise). */
    FailureReason failure = FailureReason::None;
    /** Human-readable fault detail for Failed results ("" otherwise). */
    std::string failureDetail;
    /** Draft tokens this request's verification steps fed (0 unless the
     *  request speculated; see GenRequest::speculation). */
    int64_t draftedTokens = 0;
    /** Drafted tokens accepted — emitted because they matched the
     *  request's own readout at their position. acceptedDraftTokens /
     *  draftedTokens is the request's acceptance rate. */
    int64_t acceptedDraftTokens = 0;
};

struct SchedulerOptions
{
    int maxBatch = 8;      ///< active-request cap per step
    DecodeOptions decode;  ///< cache mode, optional scheme, kernel context
    int vocabSize = 512;
    uint64_t vocabSeed = 1234;
    /** KV block pool size shared by all requests; 0 = unbounded. A request
     *  whose worst-case footprint cannot be reserved waits in the queue
     *  (DecodeOptions::pool is ignored here — the scheduler owns its
     *  pool). */
    size_t kvPoolBlocks = 0;
    /** Enable copy-on-write prefix caching: completed prefills publish
     *  their leading complete blocks, later admissions with a matching
     *  token prefix adopt them and skip that part of their prefill.
     *  Incompatible with decode.scheme (rejected at construction): a
     *  quantizing scheme's activation chunk scales depend on the rows a
     *  projection sees, so suffix-only prefill would change tokens. */
    bool prefixCache = false;
    /** Live-entry cap of the prefix cache (LRU evicted past it). */
    size_t prefixCacheEntries = 64;
    /** Consecutive admissions an Interactive request may jump ahead of a
     *  waiting Batch FIFO head before the head must be admitted first —
     *  the anti-starvation bound on priority overtaking. */
    int maxHeadOvertakes = 4;
    /** Times one request may be frozen mid-decode (KV parked in the
     *  prefix cache, slot and blocks reclaimed, re-queued for resume) to
     *  admit a waiting Interactive request. 0 disables preemption; > 0
     *  requires prefixCache (the park/resume machinery) and is therefore
     *  incompatible with decode.scheme. The bound is the anti-thrash
     *  guarantee: a Batch request can lose its slot at most this many
     *  times, so it always eventually finishes. */
    int maxPreemptions = 0;
    /** Front-door load shedding: a submit() arriving while this many
     *  requests are already queued is immediately retired as Failed /
     *  QueueOverflow instead of growing the queue without bound. 0 =
     *  unbounded. Internal re-queues (preemption) are exempt — shedding
     *  bounds new work, never in-flight work. */
    int maxQueueDepth = 0;
};

/** Aggregate counters (bench/diagnostics). */
struct SchedulerStats
{
    int64_t steps = 0;        ///< decodeStep() iterations run
    int64_t batchedRows = 0;  ///< total rows stacked across all steps
    int64_t prefillRows = 0;  ///< rows that were prompt (admission) rows
    int64_t decodedTokens = 0;
    int64_t admitted = 0;
    int64_t retired = 0;
    /** Steps on which admission of the queue head was deferred because
     *  its KV block reservation did not fit the pool. */
    int64_t deferred = 0;
    int64_t prefixHits = 0;      ///< admissions that adopted a cached prefix
    int64_t prefixMisses = 0;    ///< admissions that looked up and missed
    /** Prompt rows served from shared blocks instead of prefill compute. */
    int64_t prefillSkippedRows = 0;
    int64_t prefixInsertions = 0; ///< prefix-cache entries created
    int64_t prefixEvictions = 0;  ///< entries evicted under pool pressure
    /** Admissions where an Interactive request jumped a waiting Batch
     *  FIFO head (bounded by SchedulerOptions::maxHeadOvertakes). */
    int64_t overtakes = 0;
    int64_t cancelled = 0;    ///< requests removed via cancel()
    int64_t stoppedEarly = 0; ///< requests finished by onToken (stop seq)
    /** Mid-decode freezes: a running request's KV was parked and its slot
     *  and blocks handed to a waiting Interactive request. */
    int64_t preemptions = 0;
    /** Re-admissions of previously preempted requests. */
    int64_t resumes = 0;
    /** Prompt+generated rows of preempted requests served from parked
     *  pages at resume instead of being recomputed (also counted in
     *  prefillSkippedRows). */
    int64_t resumedRowsReused = 0;
    /** Requests retired FinishReason::Failed for any cause (shed, fault,
     *  deadline); the per-cause counters below refine this. */
    int64_t failed = 0;
    /** Submissions shed at the front door because the queue already held
     *  SchedulerOptions::maxQueueDepth requests (FailureReason::
     *  QueueOverflow). */
    int64_t shedQueueFull = 0;
    /** Queued requests failed via failRequest with FailureReason::
     *  DeadlineExceeded (the serving layer's deadline sweep). */
    int64_t shedDeadline = 0;
    /** Prefix matches dropped by PrefixCache::verifyMatch (page checksum
     *  mismatch); the admission fell back to cold prefill, so tokens are
     *  unaffected — only reuse is lost. */
    int64_t integrityFallbacks = 0;
    /** Speculative verification steps run (a speculating request's step
     *  that fed at least one draft row). */
    int64_t specSteps = 0;
    /** Draft rows fed across all verification steps. */
    int64_t draftedTokens = 0;
    /** Drafted tokens accepted (emitted); acceptedDraftTokens /
     *  draftedTokens is the fleet acceptance rate. */
    int64_t acceptedDraftTokens = 0;
    /** Steps where a speculating request fell back to a plain single-row
     *  step (drafter proposed nothing, draft budget exhausted, or the
     *  quantized chunk-boundary cap left no room). */
    int64_t specFallbackSteps = 0;
};

class BatchScheduler
{
  public:
    BatchScheduler(SyntheticModel &model,
                   const SchedulerOptions &options = {});

    /** Queue a request (FIFO admission). */
    void submit(const GenRequest &request);

    /** Run one continuous-batching iteration: admit up to the batch cap,
     *  execute one stacked decodeStep, sample one greedy token per active
     *  request, retire the finished. Returns false once fully drained. */
    bool step();

    /** Step until drained; results sorted by request id. */
    std::vector<GenResult> drain();

    /** Move out every result finished so far (unsorted, retirement
     *  order) — the serving layer's per-step collection hook. drain()
     *  keeps its collect-everything-then-sort contract. */
    std::vector<GenResult> takeFinished();

    /** Cancel a request mid-flight by id: a queued request is dropped, an
     *  active one retires immediately — its KV blocks and any undrawn
     *  reservation return to the pool (KVCache destructor) before the
     *  next step. Either way a FinishReason::Cancelled result (holding
     *  the tokens generated so far) is recorded. Returns false when the
     *  id is neither queued nor active (already finished or unknown). */
    bool cancel(int id);

    /** Fail a request by id with a structured reason: same teardown as
     *  cancel() (queued → dropped, active → retired with blocks and
     *  undrawn reservation returned), but the result is FinishReason::
     *  Failed carrying `reason`/`detail`. The serving layer's deadline
     *  sweep uses this (FailureReason::DeadlineExceeded). Returns false
     *  when the id is neither queued nor active. */
    bool failRequest(int id, FailureReason reason, const std::string &detail);

    int activeCount() const { return int(active_.size()); }
    int pendingCount() const { return int(pending_.size()); }
    const SchedulerStats &stats() const { return stats_; }
    const Vocab &vocab() const { return vocab_; }

    /** The shared KV block pool (capacity/occupancy stats surface). */
    const BlockAllocator &pool() const { return *pool_; }
    BlockPoolStats poolStats() const { return pool_->stats(); }

    /** The prefix cache, or nullptr when SchedulerOptions::prefixCache is
     *  off (stats surface; clear() releases the held blocks). */
    PrefixCache *prefixCache() { return prefix_.get(); }
    const PrefixCache *prefixCache() const { return prefix_.get(); }

  private:
    /** A queued request, possibly one frozen mid-decode awaiting resume
     *  (generated non-empty): re-admission treats prompt + generated as
     *  the effective prompt and adopts the parked prefix. */
    struct Pending
    {
        GenRequest request;
        std::vector<int> generated; ///< tokens decoded before preemption
        int steps = 0;              ///< scheduler iterations already spent
        int preemptions = 0;        ///< times frozen (anti-thrash bound)
        size_t parkedBlocks = 0;    ///< pool blocks parked for this freeze
        int64_t drafted = 0;        ///< draft rows fed before preemption
        int64_t acceptedDrafts = 0; ///< drafts accepted before preemption
    };

    struct Active
    {
        GenRequest request;
        KVCache cache;
        Matrix nextInput; ///< rows for the next step (prompt at admission)
        bool prefilling = true;
        std::vector<int> generated;
        int steps = 0;
        int preemptions = 0;  ///< carried across freeze/resume cycles
        bool resumed = false; ///< admitted with pre-generated tokens
        /** Draft proposer (null = not speculating). Rebuilt fresh at
         *  every (re-)admission: drafts are a pure function of the token
         *  sequence, so a resume proposes exactly what the uninterrupted
         *  run would have. */
        std::unique_ptr<Drafter> drafter;
        /** Draft tokens stacked into the step currently in flight
         *  (empty = this step is a plain single-row or prefill step). */
        std::vector<int> pendingDraft;
        int64_t drafted = 0;        ///< draft rows fed so far (metrics)
        int64_t acceptedDrafts = 0; ///< drafts accepted so far (metrics)
    };

    const KernelContext &kernels() const;

    /** Try to admit pending_[index]: prefix match, KV reservation (with
     *  LRU eviction fallback), cache construction. On success the request
     *  moves from pending_ to active_. */
    bool tryAdmit(size_t index);

    /** Freeze the best preemption victim (Batch-priority, past its
     *  prefill step, under its maxPreemptions bound; most blocks held
     *  among those):
     *  park its computed rows in the prefix cache, release its blocks and
     *  undrawn reservation, and re-queue it at the FIFO head. Returns
     *  false when no active request is preemptible. */
    bool preemptVictim();

    /** Admission loop run at the top of step(): FIFO with bounded
     *  Interactive overtaking, then (with maxPreemptions > 0) preemption
     *  of running Batch requests for still-waiting Interactive ones. */
    void admit();

    /** Stage `a`'s next step input: the last generated token's embedding
     *  plus — when speculating — proposed draft rows, capped so the
     *  transient KV rows stay inside the admission reservation and, in
     *  quantized mode, inside the open staging chunk (rollback never
     *  reopens a frozen chunk). Fills a.pendingDraft accordingly. */
    void stageNextInput(Active &a);

    SyntheticModel &model_;
    SchedulerOptions options_;
    std::unique_ptr<BlockAllocator> pool_;
    std::unique_ptr<PrefixCache> prefix_;
    Vocab vocab_;
    /** decode.scheme's prepared weights, built once at construction. */
    std::vector<PreparedProjections> projections_;
    std::deque<Pending> pending_;
    std::vector<Active> active_;
    std::vector<GenResult> finished_;
    SchedulerStats stats_;
    int headOvertakes_ = 0; ///< consecutive overtakes of the current head
};

} // namespace tender

#endif // TENDER_RUNTIME_BATCH_SCHEDULER_H
