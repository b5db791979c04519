/**
 * @file
 * Serving benchmark: shared declarations.
 *
 * The benchmark drives the public serving front end (ServeSession) with
 * seed-generated requests. Every decision about which request is
 * submitted before which scheduler step is a function of the workload
 * seed and of the (deterministic) tokens already served — closed loops
 * react to retirements observed after a step, arrivals are clocked in
 * scheduler steps — so every run with the same seed performs exactly the
 * same work, episode by episode. Only the wall-clock numbers differ, and
 * the benchmark asserts that the work did not (the episode fingerprint).
 */

#ifndef SERVEBENCH_BENCH_H
#define SERVEBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/tender_scheme.h"
#include "runtime/decode_engine.h"
#include "serve/serve_session.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double
usBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

// ---- Tracing (trace.cc) ---------------------------------------------------

/** One recorded interval. Times are microseconds since the tracer's
 *  origin; `parent` indexes the enclosing span (-1 = root). */
struct Span
{
    const char *name = "";
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;
    int request = -1; ///< serving request id, -1 when not request-scoped
    std::vector<std::pair<const char *, double>> args;
};

/** Name of the submit-to-terminal span of one request. */
inline constexpr const char *kRequestSpan = "serve.request";

/**
 * In-memory span recorder. Nested spans (submit, step, scheme matmul) are
 * opened and closed in LIFO order on the driving thread; a new span's
 * parent is the innermost open one. Request spans live from submit to the
 * terminal event and overlap freely, so they bypass the nesting stack.
 */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    int begin(const char *name, int request = -1);
    void end(int span);
    /** Request spans are roots: they overlap the nested spans, and their
     *  `request` id ties them to the submit and step spans. */
    int beginRequest(int request, Clock::time_point start);
    void endRequest(int span);
    void setRequest(int span, int request);
    void arg(int span, const char *key, double value);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write spans as Chrome trace-event JSON (chrome://tracing,
     *  Perfetto). */
    static void writeChrome(const std::vector<Span> &spans,
                            const std::string &path);

  private:
    double nowUs() const { return usBetween(origin_, Clock::now()); }

    Clock::time_point origin_;
    std::mutex mutex_; ///< guards spans_ and open_
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Value of argument `key` on `span` (0 when absent). */
double spanArg(const Span &span, const char *key);

/** Self time of every layer span name: duration minus the part covered by
 *  its child spans (summed, microseconds). Request spans are lifetimes
 *  that overlap each other, not layer work, and are left out. */
std::vector<std::pair<std::string, double>>
selfTimesUs(const std::vector<Span> &spans);

/**
 * Forwarding GemmScheme: times every matmul of the wrapped scheme as a
 * `tender_gemm.matmul` span (once a tracer is attached) and counts calls
 * and 2*m*k*n operations. Pure forwarding, so the served tokens are those
 * of the wrapped scheme.
 */
class TimedScheme : public tender::GemmScheme
{
  public:
    explicit TimedScheme(const tender::GemmScheme &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }
    tender::Matrix fakeQuant(const tender::Matrix &m,
                             tender::Operand op) const override
    {
        return inner_.fakeQuant(m, op);
    }
    tender::Matrix matmul(const tender::Matrix &x,
                          const tender::Matrix &w) const override;

    /** Start recording into `tracer` with the counters reset. */
    void attach(Tracer *tracer);

    int64_t calls() const { return calls_; }
    double busyUs() const { return busyUs_; }
    double ops() const { return ops_; }

  private:
    const tender::GemmScheme &inner_;
    Tracer *tracer_ = nullptr;
    mutable int64_t calls_ = 0;
    mutable double busyUs_ = 0.0;
    mutable double ops_ = 0.0;
};

// ---- Episodes (workloads.cc) ----------------------------------------------

/** Latency limits of one priority class (the SLO). */
struct Limits
{
    double ttftMs = 0.0;
    double itlMs = 0.0;
};

/** One submitted request and what the client saw of it. */
struct RequestRecord
{
    int id = -1; ///< ServeSession id
    tender::ServeRequest spec; ///< as submitted (onEvent left empty)
    Clock::time_point due;     ///< latency origin (submit or due step)
    std::vector<Clock::time_point> tokenTimes; ///< streamed tokens
    bool done = false;         ///< terminal event seen
    int span = -1;             ///< request span when traced
};

/** Instrumentation attached to a traced episode. */
struct TraceHooks
{
    Tracer *tracer = nullptr;
    tender::DecodePhaseTimes *phases = nullptr;
};

/**
 * One measured episode over a ServeSession: submits requests with a
 * streaming callback that timestamps every visible token, steps the
 * session, and (when traced) records submit/step/request spans with the
 * per-step counter deltas hung on the step span.
 */
class Episode
{
  public:
    Episode(tender::ServeSession &session, TraceHooks hooks);

    /** Submit `spec` with latency timed from `due`; returns the record
     *  index (also the submission order). */
    int submit(tender::ServeRequest spec, Clock::time_point due);

    /** One ServeSession::step; false once drained. */
    bool step();

    /** Terminal result of record `index`, or nullptr while live. */
    const tender::ServeResult *result(int index) const;

    int steps() const { return steps_; }
    const std::deque<RequestRecord> &records() const { return records_; }

  private:
    tender::ServeSession &session_;
    TraceHooks hooks_;
    std::deque<RequestRecord> records_; ///< stable: callbacks point here
    int steps_ = 0;
};

/** Replica, cache, scheme and scheduling of one workload. */
struct ServeConfig
{
    tender::ModelConfig model;
    tender::SchedulerOptions scheduler; ///< kernels/scheme filled per setup
    bool tenderScheme = false;          ///< W8A8 TenderScheme on all GEMMs
    tender::TenderConfig schemeConfig;
    int workers = 2; ///< thread-pool workers, the driving thread included
};

/** A seed-determined workload: the fixed work one episode performs. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;
    virtual const ServeConfig &config() const = 0;
    /** Drive one episode to completion (identical work every call). */
    virtual void run(Episode &episode) const = 0;
    virtual Limits limits(tender::Priority priority) const = 0;
    /** Indices (submission order) of the first episode's records that
     *  feed the quality reference. */
    virtual std::vector<int> qualityRecords() const = 0;
    /** One-line description of the generated traffic (attribution). */
    virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed);

/** Names accepted by makeWorkload, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

// ---- Quality reference (quality.cc) ---------------------------------------

/** Served logits and tokens against the serial fp32 reference. */
struct Quality
{
    double errSq = 0.0; ///< sum of squared served - reference logits
    double refSq = 0.0; ///< sum of squared reference logits
    int64_t positions = 0;
    int64_t matches = 0;        ///< reference picks the served token
    int64_t replayMismatch = 0; ///< served config fails to reproduce a token
    int requests = 0;
};

/**
 * Teacher-force the prompt and first `positions` served tokens of the
 * records `which` through (a) a single-request DecodeEngine with the
 * served configuration — the served logits: the runtime's bit-exactness
 * contracts make them independent of batching, prefix reuse, preemption
 * and speculation — and (b) the reference: fp32 KV, no scheme, serial
 * backend.
 */
Quality measureQuality(tender::SyntheticModel &model, const ServeConfig &cfg,
                       const tender::GemmScheme *scheme,
                       const tender::KernelContext &served,
                       const std::deque<RequestRecord> &records,
                       const std::vector<std::vector<int>> &outputs,
                       const std::vector<int> &which, int positions);

} // namespace servebench

#endif // SERVEBENCH_BENCH_H
