#include "runtime/batch_scheduler.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/fault_injection.h"

namespace tender {

namespace {

/** Assemble a GenResult field-by-field (GenResult grew optional failure
 *  fields; partial aggregate init would warn on every call site). */
GenResult
makeResult(int id, std::vector<int> tokens, int steps, FinishReason reason,
           FailureReason failure = FailureReason::None,
           std::string detail = {}, int64_t drafted = 0,
           int64_t accepted_drafts = 0)
{
    GenResult r;
    r.id = id;
    r.tokens = std::move(tokens);
    r.steps = steps;
    r.reason = reason;
    r.failure = failure;
    r.failureDetail = std::move(detail);
    r.draftedTokens = drafted;
    r.acceptedDraftTokens = accepted_drafts;
    return r;
}

} // namespace

const char *
finishReasonName(FinishReason reason)
{
    switch (reason) {
    case FinishReason::Length: return "length";
    case FinishReason::Stopped: return "stopped";
    case FinishReason::Cancelled: return "cancelled";
    case FinishReason::Failed: return "failed";
    }
    return "?";
}

BatchScheduler::BatchScheduler(SyntheticModel &model,
                               const SchedulerOptions &options)
    : model_(model), options_(options),
      pool_(std::make_unique<BlockAllocator>(
          blockPoolConfigFor(model.config(), options.decode.cache,
                             options.kvPoolBlocks))),
      vocab_(options.vocabSize, model.config().dModel, options.vocabSeed),
      projections_(prepareProjections(model, options.decode.scheme))
{
    TENDER_REQUIRE(options.maxBatch > 0, "maxBatch must be positive");
    TENDER_REQUIRE(options.maxHeadOvertakes >= 0,
                   "maxHeadOvertakes must be non-negative");
    TENDER_REQUIRE(model.config().decoder,
                   "the decode runtime needs a causal decoder model");
    // A quantizing scheme derives its activation row-chunk scales from
    // the rows a projection call actually sees; skipping the shared
    // prefix would shrink the prefill segment and move those chunk
    // boundaries, so a prefix hit would change the suffix's K/V (and
    // tokens) vs a cold run — breaking the bit-exact reuse contract.
    TENDER_REQUIRE(!(options.prefixCache && options.decode.scheme),
                   "prefix caching cannot run with a quantizing GemmScheme:"
                   " suffix-only prefill would shift the scheme's row-chunk"
                   " scales and change generated tokens");
    TENDER_REQUIRE(options.maxPreemptions >= 0,
                   "maxPreemptions must be non-negative");
    TENDER_REQUIRE(options.maxQueueDepth >= 0,
                   "maxQueueDepth must be non-negative (0 = unbounded)");
    // Freezing a victim IS a prefix-cache insert (and resume an adopt),
    // so preemption without the cache has nowhere to park the frozen KV.
    TENDER_REQUIRE(options.maxPreemptions == 0 || options.prefixCache,
                   "maxPreemptions > 0 requires prefixCache: preemption"
                   " parks the victim's frozen KV in the prefix cache and"
                   " resume adopts it back");
    if (options.prefixCache) {
        PrefixCacheConfig pc;
        pc.maxEntries = options.prefixCacheEntries;
        prefix_ = std::make_unique<PrefixCache>(
            model.config(), options.decode.cache, pool_.get(), pc);
    }
}

const KernelContext &
BatchScheduler::kernels() const
{
    return options_.decode.kernels ? *options_.decode.kernels
                                   : defaultKernels();
}

void
BatchScheduler::submit(const GenRequest &request)
{
    TENDER_REQUIRE(!request.promptTokens.empty(),
                   "a request needs a non-empty prompt");
    TENDER_REQUIRE(request.maxNewTokens > 0,
                   "a request must generate at least one token");
    // A quantizing scheme's activation chunk scales depend on the rows a
    // projection call sees, so a multi-row verification step would change
    // this request's (and nobody else's) projection numerics vs plain
    // single-row decode — the same non-row-locality that bars the prefix
    // cache. Speculation guarantees bit-identical tokens, so it cannot
    // run under a scheme.
    TENDER_REQUIRE(request.speculation.drafter == DrafterKind::None ||
                   !options_.decode.scheme,
                   "speculative decoding cannot run with a quantizing"
                   " GemmScheme: multi-row verification steps would shift"
                   " the scheme's row-chunk scales and change tokens");
    // Front-door load shedding: reject new work the moment the queue is
    // at its bound, rather than letting latency grow without limit.
    // Internal re-queues (preemption's push_front in preemptVictim) do
    // not pass through here, so in-flight work is never shed.
    if (options_.maxQueueDepth > 0 &&
        int(pending_.size()) >= options_.maxQueueDepth) {
        finished_.push_back(makeResult(
            request.id, {}, 0, FinishReason::Failed,
            FailureReason::QueueOverflow,
            "queue depth " + std::to_string(pending_.size()) +
                " at maxQueueDepth bound"));
        ++stats_.failed;
        ++stats_.shedQueueFull;
        return;
    }
    pending_.push_back({request, {}, 0, 0, 0});
}

bool
BatchScheduler::cancel(int id)
{
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->request.id != id)
            continue;
        // A preempted request cancelled before resume keeps the tokens
        // it generated; its park accounting is settled here while the
        // parked blocks live on as an ordinary evictable cache entry. A
        // queued request that was never preempted parked nothing.
        if (it->preemptions > 0)
            pool_->noteUnpark(it->parkedBlocks);
        finished_.push_back(makeResult(id, std::move(it->generated),
                                       it->steps, FinishReason::Cancelled,
                                       FailureReason::None, {}, it->drafted,
                                       it->acceptedDrafts));
        pending_.erase(it);
        ++stats_.cancelled;
        return true;
    }
    for (auto it = active_.begin(); it != active_.end(); ++it) {
        if (it->request.id != id)
            continue;
        finished_.push_back(makeResult(id, std::move(it->generated),
                                       it->steps, FinishReason::Cancelled,
                                       FailureReason::None, {}, it->drafted,
                                       it->acceptedDrafts));
        // Erasing the Active destroys its KVCache, which hands every
        // held block and any undrawn reservation back to the pool.
        active_.erase(it);
        ++stats_.cancelled;
        ++stats_.retired;
        return true;
    }
    return false;
}

bool
BatchScheduler::failRequest(int id, FailureReason reason,
                            const std::string &detail)
{
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->request.id != id)
            continue;
        // Same park settlement as cancel(): a preempted request failed
        // before resume leaves its parked blocks behind as an ordinary
        // evictable cache entry.
        if (it->preemptions > 0)
            pool_->noteUnpark(it->parkedBlocks);
        finished_.push_back(makeResult(id, std::move(it->generated),
                                       it->steps, FinishReason::Failed,
                                       reason, detail, it->drafted,
                                       it->acceptedDrafts));
        pending_.erase(it);
        ++stats_.failed;
        if (reason == FailureReason::DeadlineExceeded)
            ++stats_.shedDeadline;
        return true;
    }
    for (auto it = active_.begin(); it != active_.end(); ++it) {
        if (it->request.id != id)
            continue;
        finished_.push_back(makeResult(id, std::move(it->generated),
                                       it->steps, FinishReason::Failed,
                                       reason, detail, it->drafted,
                                       it->acceptedDrafts));
        // Erasing the Active destroys its KVCache, returning every held
        // block and any undrawn reservation to the pool.
        active_.erase(it);
        ++stats_.retired;
        ++stats_.failed;
        if (reason == FailureReason::DeadlineExceeded)
            ++stats_.shedDeadline;
        return true;
    }
    return false;
}

bool
BatchScheduler::tryAdmit(size_t index)
{
    Pending &p = pending_[index];
    const GenRequest &req = p.request;
    const bool resume = !p.generated.empty();
    // Resume of a preempted request is ordinary admission of its
    // *effective* prompt — the original prompt plus every token already
    // generated — against a budget shrunk by those tokens. The worst-case
    // reservation collapses back to |prompt| + maxNewTokens - 1 rows,
    // exactly the request's original footprint, and the prefix match
    // below is what finds the parked pages (its cap of complete blocks
    // only is precisely the frozen-row bound, so resume recomputes only
    // the partial-block tail the freeze could not park).
    std::vector<int> effective = req.promptTokens;
    effective.insert(effective.end(), p.generated.begin(),
                     p.generated.end());
    const int remaining = req.maxNewTokens - int(p.generated.size());
    const int max_tokens = int(effective.size()) + remaining - 1;
    // Prefix-cache lookup first: a hit shrinks both the prefill work
    // (only suffix rows are stacked) and the reservation (full shared
    // blocks are never written; the COW tail replacement is counted
    // by blocksForSuffix).
    PrefixMatch m;
    if (prefix_)
        m = prefix_->match(effective);
    // Integrity gate: never adopt pages whose content checksum drifted
    // from the sum stamped when they were published/parked. A reject
    // releases the corrupt entry and this admission prefills cold —
    // recomputing the same rows, so tokens are unchanged (a resume just
    // recomputes more).
    if (m.rows > 0 && !prefix_->verifyMatch(m)) {
        ++stats_.integrityFallbacks;
        m = PrefixMatch{};
    }
    size_t needed = KVCache::blocksForSuffix(
        model_.config(), options_.decode.cache, max_tokens, m.rows);
    bool reserved = pool_->tryReserve(needed);
    // Pool pressure: cached prefixes are opportunistic memory — evict
    // them LRU (keeping the entry this admission matched) until the
    // reservation fits or nothing evictable remains.
    while (!reserved && prefix_ && prefix_->evictLru(m.entry)) {
        ++stats_.prefixEvictions;
        reserved = pool_->tryReserve(needed);
    }
    if (!reserved && m.rows > 0 && active_.empty()) {
        // Last resort: the matched entry's own blocks may be what is
        // crowding the pool. Give up the match so the whole pool is
        // available to a cold admission.
        m = PrefixMatch{};
        needed = KVCache::blocksForTokens(
            model_.config(), options_.decode.cache, max_tokens);
        reserved = pool_->tryReserve(needed);
        while (!reserved && prefix_->evictLru()) {
            ++stats_.prefixEvictions;
            reserved = pool_->tryReserve(needed);
        }
    }
    if (!reserved) {
        TENDER_REQUIRE(!active_.empty() || index > 0,
                       "request " << req.id << " needs " << needed
                       << " KV blocks but the empty pool holds only "
                       << pool_->config().capacityBlocks
                       << ": it can never be admitted");
        return false;
    }
    KVCache cache(model_.config(), options_.decode.cache, pool_.get(),
                  needed);
    if (m.rows > 0) {
        prefix_->adopt(m, cache);
        ++stats_.prefixHits;
        stats_.prefillSkippedRows += m.rows;
    } else if (prefix_) {
        ++stats_.prefixMisses;
    }
    // Everything past the adopted prefix is one prefill segment — for a
    // resume too: what a row reads depends only on its position (the
    // quantized-KV contract, runtime/kv_cache.h), so recomputing the
    // unparked tail in one step reproduces the original run's rows bit
    // for bit, and its last row, the newest generated token, yields the
    // next token.
    const std::vector<int> first_segment(effective.begin() + m.rows,
                                         effective.end());
    if (resume) {
        pool_->noteUnpark(p.parkedBlocks);
        ++stats_.resumes;
        stats_.resumedRowsReused += m.rows;
    }
    // A fresh drafter at every (re-)admission: drafts are a pure function
    // of the token sequence, so a resumed request's drafter re-proposes
    // exactly what the uninterrupted run's would have.
    std::unique_ptr<Drafter> drafter = makeDrafter(p.request.speculation);
    Active a{std::move(p.request), std::move(cache),
             vocab_.embedAll(first_segment), true, std::move(p.generated),
             p.steps, p.preemptions, resume, std::move(drafter), {},
             p.drafted, p.acceptedDrafts};
    pending_.erase(pending_.begin() + index);
    if (a.request.onAdmit)
        a.request.onAdmit();
    active_.push_back(std::move(a));
    ++stats_.admitted;
    return true;
}

void
BatchScheduler::admit()
{
    // Admit into free batch slots. Base order is FIFO, but an Interactive
    // request may overtake Batch requests queued ahead of it — including
    // a head deferred by pool pressure — up to maxHeadOvertakes times in
    // a row, after which the head must go first (delayed, never starved).
    // Admission order only decides *when* a request runs, never what it
    // computes: all per-request work is row-local or cache-local.
    while (int(active_.size()) < options_.maxBatch && !pending_.empty()) {
        size_t index = 0;
        if (pending_.front().request.priority != Priority::Interactive &&
            headOvertakes_ < options_.maxHeadOvertakes) {
            for (size_t i = 1; i < pending_.size(); ++i) {
                if (pending_[i].request.priority ==
                    Priority::Interactive) {
                    index = i;
                    break;
                }
            }
        }
        if (index > 0 && tryAdmit(index)) {
            ++headOvertakes_;
            ++stats_.overtakes;
            continue;
        }
        // No overtake (or the overtaker did not fit either): the head.
        if (tryAdmit(0)) {
            headOvertakes_ = 0;
            continue;
        }
        ++stats_.deferred;
        break;
    }
    if (options_.maxPreemptions <= 0)
        return;

    // Preemption pass: an Interactive request the loop above left waiting
    // — every slot taken, or its reservation blocked by pool pressure —
    // may freeze a running Batch request instead of waiting out its whole
    // decode. Each round either admits the first waiting Interactive
    // request or preempts one victim (shrinking active_), so the loop
    // terminates. The overtake bound still applies: preemption never
    // becomes a starvation channel past a waiting Batch head.
    while (!pending_.empty()) {
        size_t ii = pending_.size();
        for (size_t i = 0; i < pending_.size(); ++i) {
            if (pending_[i].request.priority == Priority::Interactive) {
                ii = i;
                break;
            }
        }
        if (ii == pending_.size())
            break; // no Interactive request waiting
        if (ii > 0 && headOvertakes_ >= options_.maxHeadOvertakes)
            break; // anti-starvation: the Batch head must go next
        if (int(active_.size()) < options_.maxBatch && tryAdmit(ii)) {
            if (ii > 0) {
                ++headOvertakes_;
                ++stats_.overtakes;
            } else {
                headOvertakes_ = 0;
            }
            continue;
        }
        if (!preemptVictim())
            break; // nothing (left) to preempt for it
    }
}

bool
BatchScheduler::preemptVictim()
{
    // Victim choice: Batch priority only (Interactive never preempts
    // Interactive), past its prefill step, and under its anti-thrash
    // bound. A request still prefilling (fresh or resumed) holds nothing
    // worth parking beyond what deferral already covers, and ServeSession
    // holds it in Prefill, which may not move to Preempted; its prefill
    // step reads out its first token, so from then on it is Decoding.
    // Among candidates, the one holding the most KV blocks frees the most
    // pool; ties go to the later admission (the earlier one is closer to
    // finishing).
    size_t victim = active_.size();
    size_t victim_blocks = 0;
    for (size_t i = 0; i < active_.size(); ++i) {
        const Active &a = active_[i];
        if (a.request.priority != Priority::Batch || a.prefilling ||
            a.preemptions >= options_.maxPreemptions)
            continue;
        const size_t blocks = a.cache.blocksInUse();
        if (victim == active_.size() || blocks >= victim_blocks) {
            victim = i;
            victim_blocks = blocks;
        }
    }
    if (victim == active_.size())
        return false;
    Active &a = active_[victim];

    // Freeze. The cache holds the rows of prompt ++ generated minus the
    // last token (whose row would only be computed by the next step), all
    // already-immutable pages, so parking is one PrefixCache::insert:
    // the entry's share() refs keep the complete leading blocks alive
    // after the Active (and its KVCache) is destroyed. The partial-block
    // tail cannot be parked — in quantized mode its open staging chunk
    // would have to be sealed short, moving chunk boundaries and changing
    // numerics — so resume recomputes it instead (bit-identically, since
    // chunk boundaries are row-position-determined).
    std::vector<int> parked_tokens = a.request.promptTokens;
    parked_tokens.insert(parked_tokens.end(), a.generated.begin(),
                         a.generated.end() - 1);
    const size_t held_before = prefix_->blocksHeld();
    if (prefix_->insert(parked_tokens, a.cache))
        ++stats_.prefixInsertions;
    const size_t parked = prefix_->blocksHeld() - held_before;
    pool_->notePark(parked);
    if (a.request.onPreempt)
        a.request.onPreempt();
    // a.pendingDraft (drafts staged for the step that will now never run)
    // dies with the Active: the drafts were never fed, so the parked
    // entry holds only verified rows and resume re-drafts from scratch.
    pending_.push_front({std::move(a.request), std::move(a.generated),
                         a.steps, a.preemptions + 1, parked, a.drafted,
                         a.acceptedDrafts});
    // Erasing the Active destroys its KVCache: every private block and
    // any undrawn reservation return to the pool. The parked blocks live
    // on under the cache entry's refs (and stay LRU-evictable — a resume
    // after eviction just recomputes more).
    active_.erase(active_.begin() + victim);
    ++stats_.preemptions;
    return true;
}

bool
BatchScheduler::step()
{
    // Injected step latency (TENDER_FAULT_PLAN site "latency"): stalls
    // this iteration by the trigger's payload so tests and the bench can
    // exercise deadline shedding deterministically. Disarmed cost is one
    // relaxed atomic load.
    if (FaultInjector::instance().armed()) {
        const int64_t us =
            FaultInjector::instance().onHit(FaultSite::StepLatency);
        if (us > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(us));
    }
    admit();
    if (active_.empty())
        return false;

    // Stack every active request's pending rows into one step input.
    const int d = model_.config().dModel;
    int rows = 0;
    for (const Active &a : active_)
        rows += a.nextInput.rows();
    Matrix x(rows, d);
    std::vector<DecodeSegment> segments;
    segments.reserve(active_.size());
    int row = 0;
    for (Active &a : active_) {
        const int t = a.nextInput.rows();
        for (int r = 0; r < t; ++r)
            std::copy(a.nextInput.rowPtr(r), a.nextInput.rowPtr(r) + d,
                      x.rowPtr(row + r));
        segments.push_back({&a.cache, row, t, a.cache.length()});
        row += t;
        if (a.prefilling)
            stats_.prefillRows += t;
    }

    const Matrix hidden = decodeStep(model_, x, segments, options_.decode,
                                     projections_, kernels());
    ++stats_.steps;
    stats_.batchedRows += rows;

    // One readout product per step: the logits of every row a request
    // may read — its last row, plus one per stacked draft — stacked in
    // request order. Each row equals its single-row product bit for bit.
    std::vector<int> logits_row(active_.size(), 0);
    int read_rows = 0;
    for (size_t i = 0; i < active_.size(); ++i) {
        logits_row[i] = read_rows;
        if (!active_[i].cache.failed())
            read_rows += 1 + int(active_[i].pendingDraft.size());
    }
    Matrix logits;
    if (read_rows > 0) {
        Matrix read(read_rows, d);
        for (size_t i = 0; i < active_.size(); ++i) {
            if (active_[i].cache.failed())
                continue;
            const int n = 1 + int(active_[i].pendingDraft.size());
            const int first = segments[i].row0 + segments[i].rows - n;
            std::copy(hidden.rowPtr(first), hidden.rowPtr(first) + n * d,
                      read.rowPtr(logits_row[i]));
        }
        logits = vocab_.logits(read, kernels());
    }

    // Read one token per request off its logits rows — greedy, or the
    // request's own decode hook (the serving layer's sampler) — retire
    // the finished, and stage single-row inputs for the rest.
    std::vector<Active> still_active;
    still_active.reserve(active_.size());
    for (size_t i = 0; i < active_.size(); ++i) {
        Active &a = active_[i];
        // Containment boundary, part 1: a cache that faulted inside the
        // step (KV block allocation failed mid-append — see
        // KVCache::appendRows) holds uneven stores and must never be
        // stepped or read again. Its last hidden row is garbage-but-
        // row-local, so nothing was read out; retire the request as
        // Failed. Dropping the Active destroys the KVCache, returning
        // every held block and the undrawn reservation to the pool.
        // Co-scheduled requests are untouched: decodeStep skipped the
        // failed segment's attention and every shared projection is
        // row-local, so their tokens are bit-identical to a fault-free
        // run.
        if (a.cache.failed()) {
            finished_.push_back(makeResult(
                a.request.id, std::move(a.generated), a.steps,
                FinishReason::Failed, a.cache.failReason(),
                a.cache.failDetail(), a.drafted, a.acceptedDrafts));
            ++stats_.retired;
            ++stats_.failed;
            continue;
        }
        // Speculative verify (docs/speculation.md): when drafts were
        // stacked into this step, the segment's rows are [last emitted
        // token, d_1 .. d_k] and row i's hidden state is exactly what
        // plain decode would have produced after emitting d_1..d_i — so
        // reading row i with the same decoder (argmax or the request's
        // sampling hook at the same position, since `generated` grows
        // between reads) yields the plain-decode token stream. Accept
        // drafts while they match it; the first mismatch row carries the
        // correction token and everything after it is dead weight that
        // truncateRows() pops before the next step. n_draft == 0 is the
        // plain single-row readout.
        const int n_draft = int(a.pendingDraft.size());
        // Containment boundary, part 2: the request's own hooks — decode
        // override and streaming onToken — run on the scheduler thread,
        // so an exception from either is caught here and fails only this
        // request. Other requests' rows were already appended and their
        // readout is untouched; the batch survives.
        FailureReason hook_fail = FailureReason::None;
        std::string hook_detail;
        bool keep_going = true;
        int accepted = 0;
        if (n_draft > 0) {
            ++stats_.specSteps;
            stats_.draftedTokens += n_draft;
            a.drafted += n_draft;
        }
        try {
            for (int v = 0; v <= n_draft && keep_going; ++v) {
                const Matrix row_logits = logits.rowSlice(
                    logits_row[i] + v, logits_row[i] + v + 1);
                const int token = a.request.decode
                    ? a.request.decode(row_logits)
                    : Vocab::argmax(row_logits);
                TENDER_CHECK_MSG(
                    token >= 0 && token < vocab_.size(),
                    "request " << a.request.id
                    << " decode hook returned out-of-vocab token "
                    << token);
                a.generated.push_back(token);
                if (v == 0)
                    ++a.steps;
                ++stats_.decodedTokens;
                keep_going =
                    a.request.onToken ? a.request.onToken(token) : true;
                if (v < n_draft && token == a.pendingDraft[size_t(v)]) {
                    ++accepted;
                    // Defensive: the draft-length cap (k <= remaining-1)
                    // means the budget can only fill at the bonus row,
                    // but never read past it if a hook shrank the run.
                    if (int(a.generated.size()) >=
                        a.request.maxNewTokens)
                        break;
                    continue;
                }
                // Mismatch (correction emitted) or the bonus row after a
                // fully accepted draft: either way this is the last live
                // token this step.
                break;
            }
        } catch (const RequestFault &fault) {
            hook_fail = fault.reason();
            hook_detail = fault.what();
        } catch (const std::exception &e) {
            hook_fail = FailureReason::CallbackError;
            hook_detail = std::string("request hook threw: ") + e.what();
        }
        stats_.acceptedDraftTokens += accepted;
        a.acceptedDrafts += accepted;
        if (hook_fail != FailureReason::None) {
            finished_.push_back(makeResult(
                a.request.id, std::move(a.generated), a.steps,
                FinishReason::Failed, hook_fail, std::move(hook_detail),
                a.drafted, a.acceptedDrafts));
            ++stats_.retired;
            ++stats_.failed;
            continue;
        }
        // A completed prefill publishes its prompt's complete blocks for
        // later admissions (entry refs keep them alive past retirement;
        // identical prefixes deduplicate inside the cache). A resumed
        // request skips this: its park entry already covers a superset
        // of the prompt.
        if (a.prefilling && prefix_ && !a.resumed &&
            prefix_->insert(a.request.promptTokens, a.cache))
            ++stats_.prefixInsertions;
        a.prefilling = false;
        if (!keep_going ||
            int(a.generated.size()) >= a.request.maxNewTokens) {
            const FinishReason reason =
                keep_going ? FinishReason::Length : FinishReason::Stopped;
            if (!keep_going)
                ++stats_.stoppedEarly;
            finished_.push_back(makeResult(
                a.request.id, a.generated, a.steps, reason,
                FailureReason::None, {}, a.drafted, a.acceptedDrafts));
            ++stats_.retired;
        } else {
            // Rejection rollback: pop the rows fed for rejected drafts so
            // the cache length returns to the plain-decode invariant
            // prompt + generated - 1 (the correction token emitted at the
            // mismatch row has not had its own row fed yet — it is the
            // next step's f_0, exactly as in plain decode).
            if (n_draft > accepted)
                a.cache.truncateRows(n_draft - accepted);
            stageNextInput(a);
            still_active.push_back(std::move(a));
        }
    }
    active_ = std::move(still_active);
    return !active_.empty() || !pending_.empty();
}

void
BatchScheduler::stageNextInput(Active &a)
{
    a.pendingDraft.clear();
    if (a.drafter) {
        // Draft-length cap, part 1: k <= remaining - 1 keeps the verify
        // step's transient KV peak within the admission reservation
        // (prompt + maxNewTokens - 1 rows): feeding 1 + k rows on top of
        // length prompt + generated - 1 peaks at prompt + generated + k,
        // which the cap bounds by prompt + maxNewTokens - 1 exactly.
        const int remaining =
            a.request.maxNewTokens - int(a.generated.size());
        int k = std::min(a.request.speculation.maxDraft, remaining - 1);
        // Draft-length cap, part 2 (quantized caches only): no draft row
        // may complete a row chunk — a completed chunk freezes, and
        // KVCache::truncateRows never reopens frozen chunks. With the
        // next step's first row landing at offset (length + 1) % chunk
        // of its chunk, at most chunk - 1 - offset draft rows fit before
        // the boundary. f_0 (the verified last token's row) MAY freeze a
        // chunk; it is never truncated.
        if (a.cache.config().mode == KVCacheMode::TenderQuantized) {
            const int chunk = a.cache.config().tender.rowChunk;
            const int offset = (a.cache.length() + 1) % chunk;
            k = std::min(k, chunk - 1 - offset);
        }
        if (k > 0) {
            std::vector<int> tokens = a.request.promptTokens;
            tokens.insert(tokens.end(), a.generated.begin(),
                          a.generated.end());
            a.pendingDraft = a.drafter->draft(tokens, k);
            TENDER_CHECK_MSG(int(a.pendingDraft.size()) <= k,
                             "drafter " << a.drafter->name()
                             << " returned " << a.pendingDraft.size()
                             << " tokens for a cap of " << k);
            for (const int t : a.pendingDraft)
                TENDER_CHECK_MSG(t >= 0 && t < vocab_.size(),
                                 "drafter " << a.drafter->name()
                                 << " proposed out-of-vocab token " << t);
        }
        if (a.pendingDraft.empty())
            ++stats_.specFallbackSteps;
    }
    if (a.pendingDraft.empty()) {
        a.nextInput = vocab_.embed(a.generated.back());
        return;
    }
    std::vector<int> fed;
    fed.reserve(1 + a.pendingDraft.size());
    fed.push_back(a.generated.back());
    fed.insert(fed.end(), a.pendingDraft.begin(), a.pendingDraft.end());
    a.nextInput = vocab_.embedAll(fed);
}

std::vector<GenResult>
BatchScheduler::takeFinished()
{
    std::vector<GenResult> results = std::move(finished_);
    finished_.clear();
    return results;
}

std::vector<GenResult>
BatchScheduler::drain()
{
    while (step()) {
    }
    std::vector<GenResult> results = takeFinished();
    std::sort(results.begin(), results.end(),
              [](const GenResult &a, const GenResult &b) {
                  return a.id < b.id;
              });
    return results;
}

} // namespace tender
