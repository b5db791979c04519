#include "serve/serve_session.h"

#include <algorithm>
#include <stdexcept>

#include "serve/sampler.h"
#include "util/fault_injection.h"
#include "util/stats.h"

namespace tender {

namespace {

double
elapsedUs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/** Length of the longest stop sequence forming a suffix of `tokens`
 *  (0 = none). The longest match decides how much the result is
 *  truncated when several stop sequences end at the same token. */
int
matchedStopLen(const std::vector<int> &tokens,
               const std::vector<std::vector<int>> &stops)
{
    int best = 0;
    for (const std::vector<int> &s : stops) {
        if (int(s.size()) <= best || s.size() > tokens.size())
            continue;
        if (std::equal(s.begin(), s.end(), tokens.end() - ptrdiff_t(s.size())))
            best = int(s.size());
    }
    return best;
}

/** Length of the longest suffix of `tokens` that is a *proper* prefix of
 *  some stop sequence — tokens inside it could still become part of a
 *  stop match, so streaming holds them back until they can't. */
int
holdbackLen(const std::vector<int> &tokens,
            const std::vector<std::vector<int>> &stops)
{
    int best = 0;
    for (const std::vector<int> &s : stops) {
        const int max_h =
            int(std::min(tokens.size(), s.size() - 1));
        for (int h = max_h; h > best; --h) {
            if (std::equal(s.begin(), s.begin() + h,
                           tokens.end() - h)) {
                best = h;
                break;
            }
        }
    }
    return best;
}

} // namespace

ServeSession::ServeSession(SyntheticModel &model,
                           const ServeSessionOptions &options)
    : model_(model), options_(options), scheduler_(model, options.scheduler)
{
}

void
ServeSession::transition(Track &track, RequestState to)
{
    TENDER_CHECK_MSG(legalTransition(track.state, to),
                     "request " << track.id << ": illegal lifecycle "
                     "transition " << requestStateName(track.state)
                     << " -> " << requestStateName(to));
    track.state = to;
}

void
ServeSession::streamVisible(Track &track, int visible)
{
    TENDER_CHECK(visible <= int(track.generated.size()));
    if (!track.spec.onEvent) {
        track.streamed = std::max(track.streamed, visible);
        return;
    }
    for (int i = track.streamed; i < visible; ++i) {
        StreamEvent ev;
        ev.requestId = track.id;
        ev.token = track.generated[size_t(i)];
        ev.index = i;
        // Advance the cursor before invoking the client: a throwing
        // callback consumed its event slot, so nothing is re-delivered
        // if the track is flushed again during teardown.
        track.streamed = i + 1;
        // Client callbacks are untrusted code; contain anything they
        // throw to this request (FailureReason::CallbackError) so the
        // batch survives. The "callback" fault-plan site exercises this
        // path without a misbehaving client.
        try {
            if (FaultInjector::instance().onHit(FaultSite::CallbackThrow) >
                0)
                throw std::runtime_error(
                    "injected streaming-callback fault");
            track.spec.onEvent(ev);
        } catch (const RequestFault &) {
            throw;
        } catch (const std::exception &e) {
            throw RequestFault(FailureReason::CallbackError,
                               std::string("streaming callback threw: ") +
                                   e.what());
        } catch (...) {
            throw RequestFault(FailureReason::CallbackError,
                               "streaming callback threw a non-exception");
        }
    }
    track.streamed = std::max(track.streamed, visible);
}

void
ServeSession::emitTerminal(Track &track, FinishReason reason)
{
    if (!track.spec.onEvent)
        return;
    StreamEvent ev;
    ev.requestId = track.id;
    ev.token = -1;
    ev.index = track.streamed;
    ev.last = true;
    ev.reason = reason;
    // The terminal notification is best-effort: the request is already
    // retired, so a client that throws here has nothing left to fail.
    try {
        track.spec.onEvent(ev);
    } catch (...) {
    }
}

bool
ServeSession::onToken(Track &track, int token)
{
    const Clock::time_point now = Clock::now();
    // Every prefill cycle — the first, and each resume after a preemption
    // — ends at its first decoded token.
    if (track.state == RequestState::Prefill)
        transition(track, RequestState::Decoding);
    if (track.metrics.ttftUs < 0.0) {
        track.metrics.ttftUs = elapsedUs(track.submitTime, now);
    } else {
        // For the first token after a resume this gap spans the whole
        // frozen period: a preemption is an honest inter-token stall.
        track.metrics.interTokenUs.push_back(
            elapsedUs(track.lastTokenTime, now));
    }
    track.lastTokenTime = now;
    track.generated.push_back(token);

    const int stop = matchedStopLen(track.generated, track.spec.stopSequences);
    if (stop > 0) {
        track.stopLen = stop;
        // Everything before the matched stop sequence becomes visible;
        // the match itself is never streamed.
        streamVisible(track, int(track.generated.size()) - stop);
        return false;
    }
    streamVisible(track,
                  int(track.generated.size()) -
                      holdbackLen(track.generated,
                                  track.spec.stopSequences));
    return true;
}

void
ServeSession::fail(Track &track, const std::string &why,
                   FailureReason reason)
{
    transition(track, RequestState::Failed);
    track.failure = reason;
    ServeResult result;
    result.id = track.id;
    result.state = RequestState::Failed;
    result.reason = FinishReason::Failed;
    result.error = why;
    result.failure = reason;
    results_[track.id] = std::move(result);
    undrained_.push_back(track.id);
    emitTerminal(track, FinishReason::Failed);
}

int
ServeSession::submit(const ServeRequest &request)
{
    const int id = nextId_++;
    auto owned = std::make_unique<Track>();
    Track &track = *owned;
    track.id = id;
    track.spec = request;
    track.submitTime = Clock::now();
    tracks_[id] = std::move(owned);

    // Front-door validation: requests the scheduler could never run
    // retire as Failed here instead of tripping its fatal checks.
    if (request.promptTokens.empty()) {
        fail(track, "empty prompt");
        return id;
    }
    if (request.maxNewTokens <= 0) {
        fail(track, "maxNewTokens must be positive");
        return id;
    }
    for (const int t : request.promptTokens) {
        if (t < 0 || t >= options_.scheduler.vocabSize) {
            fail(track, "prompt token out of vocabulary");
            return id;
        }
    }
    for (const std::vector<int> &s : request.stopSequences) {
        if (s.empty()) {
            fail(track, "empty stop sequence");
            return id;
        }
    }
    if (request.deadlineUs < 0) {
        fail(track, "deadlineUs must be non-negative (0 = none)");
        return id;
    }
    if (request.speculation.drafter != DrafterKind::None) {
        if (options_.scheduler.decode.scheme) {
            fail(track, "speculative decoding cannot run with a "
                        "quantizing GemmScheme (docs/speculation.md)");
            return id;
        }
        if (request.speculation.maxDraft <= 0) {
            fail(track, "speculation.maxDraft must be positive");
            return id;
        }
    }
    const size_t cap = options_.scheduler.kvPoolBlocks;
    if (cap > 0) {
        const int max_tokens =
            int(request.promptTokens.size()) + request.maxNewTokens - 1;
        const size_t worst = KVCache::blocksForTokens(
            model_.config(), options_.scheduler.decode.cache, max_tokens);
        if (worst > cap) {
            fail(track, "worst-case KV footprint exceeds the block pool");
            return id;
        }
    }

    GenRequest gen;
    gen.id = id;
    gen.promptTokens = request.promptTokens;
    gen.maxNewTokens = request.maxNewTokens;
    gen.priority = request.priority;
    gen.speculation = request.speculation;
    Track *t = &track; // stable address (owned by tracks_)
    gen.decode = [t](const Matrix &logits) {
        // Position (== tokens drawn so far) seeds the stream, so the
        // draw depends only on the request and the logits row.
        return sampleToken(logits, t->spec.sampling,
                           int(t->generated.size()));
    };
    gen.onToken = [this, t](int token) { return onToken(*t, token); };
    gen.onAdmit = [this, t]() {
        const Clock::time_point now = Clock::now();
        if (t->state == RequestState::Queued)
            t->metrics.queuedUs = elapsedUs(t->submitTime, now);
        else // re-admission of a preempted request (the resume)
            t->metrics.parkedUs += elapsedUs(t->preemptTime, now);
        transition(*t, RequestState::Prefill);
    };
    gen.onPreempt = [this, t]() {
        t->preemptTime = Clock::now();
        ++t->metrics.preemptions;
        transition(*t, RequestState::Preempted);
    };
    scheduler_.submit(gen);
    // A submit shed at the scheduler's queue-depth bound produced a
    // Failed result synchronously; surface it before the caller ever
    // sees the id as live.
    collectFinished();
    return id;
}

bool
ServeSession::cancel(int id)
{
    const auto it = tracks_.find(id);
    if (it == tracks_.end())
        return false;
    Track &track = *it->second;
    if (track.state == RequestState::Finished ||
        track.state == RequestState::Cancelled ||
        track.state == RequestState::Failed)
        return false;
    TENDER_CHECK(scheduler_.cancel(id));
    collectFinished();
    return true;
}

void
ServeSession::collectFinished()
{
    for (GenResult &r : scheduler_.takeFinished()) {
        const auto it = tracks_.find(r.id);
        TENDER_CHECK(it != tracks_.end());
        Track &track = *it->second;

        ServeResult result;
        result.id = r.id;
        result.reason = r.reason;
        switch (r.reason) {
        case FinishReason::Length:
            // Budget finish flushes any holdback: nothing can complete a
            // stop sequence any more. A callback breaking on this very
            // last flush no longer has a request to fail — swallow it
            // (the client simply misses its tail tokens).
            try {
                streamVisible(track, int(track.generated.size()));
            } catch (const RequestFault &) {
            }
            transition(track, RequestState::Finished);
            result.tokens = track.generated;
            break;
        case FinishReason::Stopped:
            transition(track, RequestState::Finished);
            result.tokens.assign(
                track.generated.begin(),
                track.generated.end() - track.stopLen);
            break;
        case FinishReason::Cancelled:
            transition(track, RequestState::Cancelled);
            // The client keeps what was decoded, streamed or not.
            result.tokens = track.generated;
            break;
        case FinishReason::Failed:
            // A contained fault (queue-overflow shed, deadline shed, KV
            // allocation failure, throwing callback) retired it in the
            // scheduler; record the structured cause. No streaming flush:
            // a failed request's callback is not to be trusted with more
            // events (emitTerminal below is wrapped, best-effort).
            transition(track, RequestState::Failed);
            track.failure = r.failure;
            result.tokens = track.generated;
            result.error = r.failureDetail;
            result.failure = r.failure;
            break;
        }
        result.state = track.state;
        // Speculation counters live in the scheduler (it runs the verify
        // loop); fold them into the request's metrics at retirement.
        track.metrics.draftedTokens = r.draftedTokens;
        track.metrics.acceptedDraftTokens = r.acceptedDraftTokens;
        result.metrics = track.metrics;
        results_[r.id] = std::move(result);
        undrained_.push_back(r.id);
        emitTerminal(track, r.reason);
    }
}

void
ServeSession::shedExpired()
{
    const Clock::time_point now = Clock::now();
    for (auto &entry : tracks_) {
        Track &track = *entry.second;
        if (track.spec.deadlineUs <= 0)
            continue;
        // Only still-waiting requests are shed: Queued (never admitted)
        // and Preempted (waiting for re-admission). A request already
        // computing finishes — shedding bounds waiting, it never throws
        // away in-flight work.
        if (track.state != RequestState::Queued &&
            track.state != RequestState::Preempted)
            continue;
        if (elapsedUs(track.submitTime, now) <=
            double(track.spec.deadlineUs))
            continue;
        TENDER_CHECK(scheduler_.failRequest(
            track.id, FailureReason::DeadlineExceeded,
            "deadline expired before (re-)admission"));
    }
}

bool
ServeSession::step()
{
    shedExpired();
    const bool more = scheduler_.step();
    collectFinished();
    return more;
}

std::vector<ServeResult>
ServeSession::drain()
{
    while (step()) {
    }
    std::sort(undrained_.begin(), undrained_.end());
    std::vector<ServeResult> out;
    out.reserve(undrained_.size());
    for (const int id : undrained_)
        out.push_back(results_.at(id));
    undrained_.clear();
    return out;
}

RequestState
ServeSession::state(int id) const
{
    const auto it = tracks_.find(id);
    TENDER_REQUIRE(it != tracks_.end(),
                   "unknown request id " << id);
    return it->second->state;
}

const ServeResult *
ServeSession::result(int id) const
{
    const auto it = results_.find(id);
    return it == results_.end() ? nullptr : &it->second;
}

LatencyStats
ServeSession::latency(Priority priority) const
{
    LatencyStats stats;
    std::vector<double> ttft, itl;
    for (const auto &entry : tracks_) {
        const Track &track = *entry.second;
        if (track.spec.priority != priority)
            continue;
        // Failed requests are tallied per cause but excluded from the
        // percentiles: a shed request has no token latencies, and a
        // faulted one's samples would mix an aborted run into the SLA
        // numbers.
        if (track.state == RequestState::Failed) {
            if (track.failure == FailureReason::QueueOverflow)
                ++stats.shedQueueFull;
            else if (track.failure == FailureReason::DeadlineExceeded)
                ++stats.shedDeadline;
            else
                ++stats.failed;
            continue;
        }
        if (track.state != RequestState::Finished &&
            track.state != RequestState::Cancelled)
            continue;
        if (track.metrics.ttftUs < 0.0)
            continue; // cancelled before its first token
        ++stats.requests;
        stats.tokens += int64_t(track.generated.size());
        stats.preemptions += track.metrics.preemptions;
        stats.draftedTokens += track.metrics.draftedTokens;
        stats.acceptedDraftTokens += track.metrics.acceptedDraftTokens;
        ttft.push_back(track.metrics.ttftUs);
        itl.insert(itl.end(), track.metrics.interTokenUs.begin(),
                   track.metrics.interTokenUs.end());
    }
    stats.ttftSamples = int(ttft.size());
    stats.itlSamples = int(itl.size());
    if (!ttft.empty()) {
        stats.ttftP50Us = quantile(ttft, 0.50);
        stats.ttftP95Us = quantile(ttft, 0.95);
    }
    if (!itl.empty()) {
        stats.itlP50Us = quantile(itl, 0.50);
        stats.itlP95Us = quantile(itl, 0.95);
    }
    return stats;
}

} // namespace tender
