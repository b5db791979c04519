/**
 * @file
 * Serving benchmark entry point.
 *
 *   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--commit <id>] [--trace-dir <dir>]
 *
 * A run executes episodes (set-up, then the fixed work of sub-seed
 * mix(seed, k) for episode k), at least kMinEpisodes of them and more
 * while another is expected to end within --seconds. Timings are medians
 * over episodes of each episode's own statistic, so a burst of contention
 * on the shared host that slows one episode does not move them; only the
 * TTFT tail pools the samples of every episode, because one episode has
 * too few requests for a tail. --trace 0 prints the end-to-end metrics;
 * --trace 1 alternates untraced and traced episodes and prints the
 * per-layer metrics, writing the traced spans as Chrome trace-event JSON.
 * Either way the run checks its outputs and exits non-zero, printing no
 * result, when a check fails. The last line of stdout is the result JSON.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "tensor/kernels.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sb = servebench;
using namespace tender;
using sb::Clock;
using sb::usBetween;

namespace {

constexpr uint64_t kModelSeed = 1;
constexpr size_t kMinEpisodes = 4;
/** Untraced + traced episode pairs per --trace 1 run, at least. */
constexpr size_t kMinPairs = 2;
/** Set-ups timed per episode: the episode's own and stand-alone ones. */
constexpr size_t kSetupsPerEpisode = 2;
/** Quality metrics at or below this NMSE (bit-exact and fp32-rounding
 *  paths) read as the floor, so the metric is never 0. */
constexpr double kNmseFloor = 1e-9;
/** Output positions per request compared against the reference. */
constexpr int kQualityPositions = 16;

[[noreturn]] void
fail(const std::string &why)
{
    std::fprintf(stderr, "servebench: check failed: %s\n", why.c_str());
    std::fflush(stdout);
    std::exit(1);
}

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string commit = "unknown";
    std::string traceDir = ".bench_build/traces";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            fail("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed") {
            a.seed = std::stoull(val);
            haveSeed = true;
        } else if (key == "--seconds")
            a.seconds = std::stod(val);
        else if (key == "--trace")
            a.trace = std::stoi(val);
        else if (key == "--commit")
            a.commit = val;
        else if (key == "--trace-dir")
            a.traceDir = val;
        else
            fail("unknown argument " + key);
    }
    if (a.workload.empty() || !haveSeed || a.seconds < 0.0 ||
        (a.trace != 0 && a.trace != 1))
        fail("usage: servebench --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>");
    return a;
}

double
seconds(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from).count();
}

double
median(std::vector<double> xs)
{
    return xs.empty() ? 0.0 : quantile(std::move(xs), 0.5);
}

/** Highest of the usual percentiles with at least ten samples beyond it. */
int
tailPercentile(size_t samples)
{
    for (const int p : {99, 95, 90, 75})
        if (double(samples) * (100 - p) / 100.0 >= 10.0)
            return p;
    return 50;
}

/** Host speed when called: best of three timings of a fixed serial 96^3
 *  GEMM repeated 4x, in MFLOP/s. Attribution only: it shows the shared
 *  host's state next to the numbers measured in that state. */
double
hostMflops()
{
    const KernelContext serial(Backend::Serial);
    Rng rng(7);
    const Matrix a = randomGaussian(96, 96, rng);
    const Matrix b = randomGaussian(96, 96, rng);
    double best = 0.0, sink = 0.0;
    for (int attempt = 0; attempt < 3; ++attempt) {
        const auto t0 = Clock::now();
        for (int r = 0; r < 4; ++r)
            sink += double(serial.gemm(a, b)(0, 0));
        best = std::max(best, 2.0 * 96 * 96 * 96 * 4 / seconds(t0) * 1e-6);
    }
    return sink == 0.5 ? 0.0 : best; // keeps the GEMMs observable
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---- set-up -------------------------------------------------------------

/** Everything an episode runs on; members destroyed session-first. */
struct Setup
{
    std::unique_ptr<KernelContext> kc;
    std::unique_ptr<SyntheticModel> model;
    std::unique_ptr<TenderScheme> scheme;
    std::unique_ptr<sb::TimedScheme> timed;
    std::unique_ptr<ServeSession> session;
    double seconds = 0.0;
};

/** Weights for every layer, scheme, thread pool, session and pool, and
 *  one warm-up request; the prefix cache is emptied afterwards so every
 *  episode starts cold. */
std::unique_ptr<Setup>
setUp(const sb::Workload &w, Backend backend, DecodePhaseTimes *phases,
      bool timedScheme)
{
    const auto t0 = Clock::now();
    const sb::ServeConfig &cfg = w.config();
    auto s = std::make_unique<Setup>();
    s->kc = std::make_unique<KernelContext>(backend, cfg.workers);
    s->model = std::make_unique<SyntheticModel>(cfg.model, kModelSeed);
    for (int l = 0; l < cfg.model.nLayers; ++l)
        s->model->blockWeights(l);
    ServeSessionOptions options;
    options.scheduler = cfg.scheduler;
    options.scheduler.decode.kernels = s->kc.get();
    options.scheduler.decode.phases = phases;
    if (cfg.tenderScheme) {
        s->scheme = std::make_unique<TenderScheme>(cfg.schemeConfig);
        s->scheme->setKernels(s->kc.get());
        options.scheduler.decode.scheme = s->scheme.get();
        if (timedScheme) {
            s->timed = std::make_unique<sb::TimedScheme>(*s->scheme);
            options.scheduler.decode.scheme = s->timed.get();
        }
    }
    s->session = std::make_unique<ServeSession>(*s->model, options);
    ServeRequest warm;
    for (int t = 0; t < 16; ++t)
        warm.promptTokens.push_back(t);
    warm.maxNewTokens = 4;
    s->session->submit(warm);
    const std::vector<ServeResult> done = s->session->drain();
    if (done.size() != 1 || done[0].state != RequestState::Finished)
        fail("warm-up request did not finish");
    if (PrefixCache *pc = s->session->scheduler().prefixCache())
        pc->clear();
    s->seconds = seconds(t0);
    return s;
}

// ---- one episode --------------------------------------------------------

/** Counts that must repeat exactly for a given seed. */
struct Fingerprint
{
    uint64_t tokenHash = 1469598103934665603ull;
    std::vector<std::pair<const char *, int64_t>> counts;

    std::string
    mismatch(const Fingerprint &o) const
    {
        if (tokenHash != o.tokenHash)
            return "served tokens";
        for (size_t i = 0; i < counts.size(); ++i)
            if (counts[i].second != o.counts[i].second)
                return std::string(counts[i].first) + " " +
                       std::to_string(counts[i].second) + " vs " +
                       std::to_string(o.counts[i].second);
        return "";
    }
};

struct EpisodeOut
{
    double setupS = 0.0;
    double wallS = 0.0;
    std::deque<sb::RequestRecord> records;
    std::vector<ServeResult> results;      ///< per record
    std::vector<std::vector<int>> outputs; ///< generated, stop seq included
    int sessionSteps = 0;
    SchedulerStats stats;     ///< delta over the measured phase
    BlockPoolStats pool;      ///< at the end (peaks)
    int64_t cowCopies = 0;    ///< delta
    int64_t parks = 0;        ///< delta
    DecodePhaseTimes phases;  ///< delta (traced)
    int64_t gemmCalls = 0;
    double gemmUs = 0.0;
    double gemmOps = 0.0;
    std::vector<sb::Span> spans;
    Fingerprint fp;
};

SchedulerStats
statsDelta(const SchedulerStats &a, const SchedulerStats &b)
{
    SchedulerStats d = b;
    d.steps -= a.steps;
    d.batchedRows -= a.batchedRows;
    d.prefillRows -= a.prefillRows;
    d.decodedTokens -= a.decodedTokens;
    d.admitted -= a.admitted;
    d.retired -= a.retired;
    d.deferred -= a.deferred;
    d.prefixHits -= a.prefixHits;
    d.prefixMisses -= a.prefixMisses;
    d.prefillSkippedRows -= a.prefillSkippedRows;
    d.prefixInsertions -= a.prefixInsertions;
    d.prefixEvictions -= a.prefixEvictions;
    d.overtakes -= a.overtakes;
    d.stoppedEarly -= a.stoppedEarly;
    d.preemptions -= a.preemptions;
    d.resumes -= a.resumes;
    d.resumedRowsReused -= a.resumedRowsReused;
    d.failed -= a.failed;
    d.specSteps -= a.specSteps;
    d.draftedTokens -= a.draftedTokens;
    d.acceptedDraftTokens -= a.acceptedDraftTokens;
    d.specFallbackSteps -= a.specFallbackSteps;
    return d;
}

EpisodeOut
runEpisode(const sb::Workload &w, Backend backend, bool traced)
{
    EpisodeOut out;
    DecodePhaseTimes phases;
    std::unique_ptr<sb::Tracer> tracer; // outlives the set-up below
    std::unique_ptr<Setup> setup =
        setUp(w, backend, traced ? &phases : nullptr, traced);
    out.setupS = setup->seconds;
    ServeSession &session = *setup->session;
    const SchedulerStats s0 = session.scheduler().stats();
    const BlockPoolStats pool0 = session.poolStats();
    const DecodePhaseTimes p0 = phases;
    const auto t0 = Clock::now();
    if (traced) {
        tracer = std::make_unique<sb::Tracer>(t0);
        if (setup->timed)
            setup->timed->attach(tracer.get());
    }
    sb::Episode ep(session, {tracer.get(), traced ? &phases : nullptr});
    w.run(ep);
    out.wallS = seconds(t0);

    out.sessionSteps = ep.steps();
    out.stats = statsDelta(s0, session.scheduler().stats());
    out.pool = session.poolStats();
    out.cowCopies = out.pool.cowCopies - pool0.cowCopies;
    out.parks = out.pool.parks - pool0.parks;
    out.phases.projectionsUs = phases.projectionsUs - p0.projectionsUs;
    out.phases.appendUs = phases.appendUs - p0.appendUs;
    out.phases.historyUs = phases.historyUs - p0.historyUs;
    out.phases.attentionUs = phases.attentionUs - p0.attentionUs;
    if (setup->timed) {
        out.gemmCalls = setup->timed->calls();
        out.gemmUs = setup->timed->busyUs();
        out.gemmOps = setup->timed->ops();
    }
    if (tracer)
        out.spans = tracer->spans();

    Fingerprint &fp = out.fp;
    for (size_t i = 0; i < ep.records().size(); ++i) {
        const ServeResult *res = ep.result(int(i));
        if (!res || res->state != RequestState::Finished)
            fail(std::string(w.name()) + ": request " + std::to_string(i) +
                 " did not finish" +
                 (res ? " (" + res->error + ")" : std::string()));
        std::vector<int> gen = res->tokens;
        if (res->reason == FinishReason::Stopped) {
            const std::vector<int> &stop =
                ep.records()[i].spec.stopSequences[0];
            gen.insert(gen.end(), stop.begin(), stop.end());
        }
        for (const int t : gen)
            fp.tokenHash = (fp.tokenHash ^ uint64_t(t + 1)) * 1099511628211ull;
        fp.tokenHash = (fp.tokenHash ^ 0xffu) * 1099511628211ull;
        out.results.push_back(*res);
        out.outputs.push_back(std::move(gen));
    }
    out.records = ep.records();
    const SchedulerStats &st = out.stats;
    fp.counts = {
        {"session_steps", out.sessionSteps},
        {"steps", st.steps},
        {"batched_rows", st.batchedRows},
        {"prefill_rows", st.prefillRows},
        {"prefix_hits", st.prefixHits},
        {"prefill_skipped_rows", st.prefillSkippedRows},
        {"deferred", st.deferred},
        {"overtakes", st.overtakes},
        {"preemptions", st.preemptions},
        {"resumes", st.resumes},
        {"drafted_tokens", st.draftedTokens},
        {"accepted_draft_tokens", st.acceptedDraftTokens},
        {"peak_allocated_blocks", int64_t(out.pool.peakAllocatedBlocks)},
        {"peak_committed_blocks", int64_t(out.pool.peakCommittedBlocks)},
        {"cow_copies", out.cowCopies},
    };
    return out;
}

/** Replay the requests of `ep` that could speculate or be preempted with
 *  neither (unbounded pool, no prefix cache) and require identical
 *  tokens. */
void
checkPlainReplay(const sb::Workload &w, Backend backend, const EpisodeOut &ep)
{
    std::unique_ptr<Setup> s = setUp(w, backend, nullptr, false);
    ServeSessionOptions options;
    options.scheduler = w.config().scheduler;
    options.scheduler.decode.kernels = s->kc.get();
    options.scheduler.decode.scheme = s->scheme.get();
    options.scheduler.maxPreemptions = 0;
    options.scheduler.prefixCache = false;
    options.scheduler.kvPoolBlocks = 0;
    ServeSession plain(*s->model, options);
    std::vector<std::pair<size_t, int>> ids;
    for (size_t i = 0; i < ep.records.size(); ++i) {
        ServeRequest spec = ep.records[i].spec;
        if (spec.speculation.drafter == DrafterKind::None &&
            spec.priority != Priority::Batch)
            continue;
        spec.speculation = SpeculationParams{};
        ids.emplace_back(i, plain.submit(spec));
    }
    plain.drain();
    for (const auto &[i, id] : ids) {
        const ServeResult *res = plain.result(id);
        if (!res || res->tokens != ep.results[i].tokens)
            fail(std::string(w.name()) + ": request " + std::to_string(i) +
                 " differs from its replay without speculation and "
                 "preemption");
    }
}

// ---- latency samples -----------------------------------------------------

struct Latency
{
    std::vector<double> ttftMs, itlMs, tpotMs;
    int attempted = 0;
    int finished = 0;
    int sloMet = 0;
    int64_t tokens = 0;
};

void
addLatency(const sb::Workload &w, const EpisodeOut &ep, Latency &lat)
{
    for (size_t i = 0; i < ep.records.size(); ++i) {
        const sb::RequestRecord &r = ep.records[i];
        const ServeResult &res = ep.results[i];
        ++lat.attempted;
        const std::vector<Clock::time_point> &t = r.tokenTimes;
        if (res.state != RequestState::Finished)
            continue;
        ++lat.finished;
        lat.tokens += int64_t(res.tokens.size());
        if (t.empty())
            continue;
        const double ttft = usBetween(r.due, t.front()) / 1e3;
        lat.ttftMs.push_back(ttft);
        for (size_t k = 1; k < t.size(); ++k)
            lat.itlMs.push_back(usBetween(t[k - 1], t[k]) / 1e3);
        double tpot = 0.0;
        if (t.size() > 1) {
            tpot = usBetween(t.front(), t.back()) / 1e3 / double(t.size() - 1);
            lat.tpotMs.push_back(tpot);
        }
        const sb::Limits lim = w.limits(r.spec.priority);
        if (ttft <= lim.ttftMs && tpot <= lim.itlMs)
            ++lat.sloMet;
    }
}

// ---- output ----------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string detail;
};

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o + "\"";
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printResult(const std::vector<Metric> &metrics, int attempted, int failed)
{
    for (const Metric &m : metrics)
        std::printf("servebench: %-36s %16.6f %-8s %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.detail.c_str());
    std::string json = "{\"correct\": true, \"attempted\": " +
                       std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        json += (i ? ", " : "") + jsonString(metrics[i].name) +
                ": {\"value\": " + num(metrics[i].value) +
                ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    std::printf("%s}}\n", json.c_str());
}

/** "p90 of 480" style percentile attribution. */
std::string
pctOf(int p, size_t n)
{
    return "p" + std::to_string(p) + " of " + std::to_string(n) + " samples";
}

double
pct(const std::vector<double> &xs, int p)
{
    return xs.empty() ? 0.0 : quantile(xs, p / 100.0);
}

/** Attribution header: where and on what the numbers were measured. */
void
printHeader(const Args &a, const sb::Workload &w, Backend backend,
            const std::string &extra)
{
    const sb::ServeConfig &cfg = w.config();
    const ModelConfig &m = cfg.model;
    std::ostringstream h;
    h << "{\"workload\": " << jsonString(w.name())
      << ", \"seed\": " << a.seed << ", \"commit\": " << jsonString(a.commit)
      << ", \"trace\": " << a.trace << ", \"run_seconds\": " << a.seconds
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"pool_workers\": " << cfg.workers
      << ", \"backend\": " << jsonString(backendName(backend))
      << ", \"simd\": " << jsonString(simdDescription())
      << ", \"replica\": {\"name\": " << jsonString(m.name)
      << ", \"d_model\": " << m.dModel << ", \"heads\": " << m.nHeads
      << ", \"kv_heads\": " << m.kvHeads << ", \"layers\": " << m.nLayers
      << ", \"d_ffn\": " << m.dFfn << "}"
      << ", \"kv_cache\": "
      << jsonString(cfg.scheduler.decode.cache.mode == KVCacheMode::Fp32
                        ? "fp32"
                        : "tender-quantized")
      << ", \"tender_scheme\": " << (cfg.tenderScheme ? "true" : "false")
      << ", \"max_batch\": " << cfg.scheduler.maxBatch
      << ", \"kv_pool_blocks\": " << cfg.scheduler.kvPoolBlocks
      << ", \"limits\": {";
    const char *sep = "";
    for (const Priority p : {Priority::Interactive, Priority::Batch}) {
        const sb::Limits l = w.limits(p);
        h << sep << jsonString(p == Priority::Interactive ? "interactive"
                                                          : "batch")
          << ": {\"ttft_ms\": " << l.ttftMs << ", \"itl_ms\": " << l.itlMs
          << "}";
        sep = ", ";
    }
    h << "}, \"traffic\": " << jsonString(w.describe()) << extra << "}";
    std::printf("servebench: attribution %s\n", h.str().c_str());
}

/** Distinct, seed-derived workloads of a run's episodes: episode k runs
 *  the requests of sub-seed mix(seed, k). Averaging over several request
 *  sets is what keeps runs with different seeds within the bounds. */
class Episodes
{
  public:
    Episodes(std::string name, uint64_t seed)
        : name_(std::move(name)), seed_(seed)
    {
    }

    const sb::Workload &
    operator[](size_t k)
    {
        while (ws_.size() <= k)
            ws_.push_back(sb::makeWorkload(name_, subSeed(ws_.size())));
        return *ws_[k];
    }

    uint64_t
    subSeed(size_t k) const
    {
        uint64_t z = seed_ * 0x9e3779b97f4a7c15ull + k + 1;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

  private:
    std::string name_;
    uint64_t seed_;
    std::vector<std::unique_ptr<sb::Workload>> ws_;
};

void
checkSameWork(const char *workload, size_t k, const EpisodeOut &a,
              const EpisodeOut &b)
{
    const std::string why = a.fp.mismatch(b.fp);
    if (!why.empty())
        fail(std::string(workload) + ": episode " + std::to_string(k) +
             " did different work traced and untraced: " + why);
}

std::string
workJson(const std::vector<EpisodeOut> &eps, size_t n)
{
    std::ostringstream o;
    o << ", \"work\": [";
    for (size_t k = 0; k < n && k < eps.size(); ++k) {
        const Fingerprint &fp = eps[k].fp;
        o << (k ? ", " : "") << "{\"token_hash\": " << fp.tokenHash;
        for (const auto &[name, value] : fp.counts)
            o << ", " << jsonString(name) << ": " << value;
        o << "}";
    }
    o << "]";
    return o.str();
}

// ---- --trace 0: end-to-end metrics ------------------------------------------

int
runEndToEnd(const Args &a, Episodes &w, Backend backend)
{
    const double hostBefore = hostMflops();
    // Stand-alone set-ups follow each episode, so set-ups are timed across
    // the whole run rather than in one stretch of it.
    std::vector<EpisodeOut> eps;
    std::vector<double> setupS;
    const auto start = Clock::now();
    for (;;) {
        const size_t n = eps.size();
        if (n >= kMinEpisodes && seconds(start) * (n + 1) / n > a.seconds)
            break;
        eps.push_back(runEpisode(w[n], backend, false));
        setupS.push_back(eps.back().setupS);
        while (setupS.size() < kSetupsPerEpisode * eps.size())
            setupS.push_back(setUp(w[n], backend, nullptr, false)->seconds);
    }
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    const double peakRssMiB = double(ru.ru_maxrss) / 1024.0;
    const double hostAfter = hostMflops();

    // Checks and the quality reference, outside the timed window. (Traced
    // and untraced episodes are compared by --trace 1 runs.)
    auto t = Clock::now();
    if (w[0].config().scheduler.maxPreemptions > 0)
        checkPlainReplay(w[0], backend, eps[0]);
    const double replayCheckS = seconds(t);
    t = Clock::now();
    std::unique_ptr<Setup> ref = setUp(w[0], backend, nullptr, false);
    sb::Quality q;
    for (size_t k = 0; k < kMinEpisodes; ++k) {
        const sb::Quality qk = sb::measureQuality(
            *ref->model, w[k].config(), ref->scheme.get(), *ref->kc,
            eps[k].records, eps[k].outputs, w[k].qualityRecords(),
            kQualityPositions);
        q.errSq += qk.errSq;
        q.refSq += qk.refSq;
        q.positions += qk.positions;
        q.matches += qk.matches;
        q.replayMismatch += qk.replayMismatch;
        q.requests += qk.requests;
    }
    if (q.replayMismatch > 0)
        fail(std::string(w[0].name()) + ": " +
             std::to_string(q.replayMismatch) +
             " served tokens not reproduced by a single-request replay");
    const double qualityS = seconds(t);

    // Per-episode latency samples, and every episode's pooled together.
    std::vector<Latency> per(eps.size());
    Latency lat;
    size_t ttftBase = 0, itlBase = SIZE_MAX;
    for (size_t k = 0; k < eps.size(); ++k) {
        addLatency(w[k], eps[k], per[k]);
        addLatency(w[k], eps[k], lat);
        if (k < kMinEpisodes) {
            ttftBase += per[k].ttftMs.size();
            itlBase = std::min(itlBase, per[k].itlMs.size());
        }
    }
    // Percentiles are chosen from the samples of the first kMinEpisodes
    // episodes, so the choice depends on the seed alone: the TTFT tail from
    // their pooled samples, the ITL tail from the smallest episode's.
    const int ttftP = tailPercentile(ttftBase);
    const int itlP = tailPercentile(itlBase);
    std::vector<double> tps, peakKv, ttft50, itl50, itlTail, tpot50;
    size_t ttftMin = SIZE_MAX, itlMin = SIZE_MAX, tpotMin = SIZE_MAX;
    for (size_t k = 0; k < eps.size(); ++k) {
        const Latency &l = per[k];
        ttftMin = std::min(ttftMin, l.ttftMs.size());
        itlMin = std::min(itlMin, l.itlMs.size());
        tpotMin = std::min(tpotMin, l.tpotMs.size());
        tps.push_back(double(l.tokens) / eps[k].wallS);
        peakKv.push_back(double(eps[k].pool.peakAllocatedBytes()) / 1048576.0);
        ttft50.push_back(pct(l.ttftMs, 50));
        itl50.push_back(pct(l.itlMs, 50));
        itlTail.push_back(pct(l.itlMs, itlP));
        tpot50.push_back(pct(l.tpotMs, 50));
    }
    const std::string perEpisode =
        " per episode, median of " + std::to_string(eps.size()) + " episodes";
    const double nmse = q.refSq > 0.0 ? q.errSq / q.refSq : 0.0;

    std::ostringstream extra;
    std::vector<double> episodeS;
    for (const EpisodeOut &e : eps)
        episodeS.push_back(e.wallS);
    extra << ", \"host_mflops\": [" << num(hostBefore) << ", "
          << num(hostAfter) << "]"
          << ", \"episodes\": " << eps.size() << ", \"episode_s\": "
          << num(median(episodeS)) << ", \"per_episode\": {";
    const std::pair<const char *, const std::vector<double> *> series[] = {
        {"tokens_per_s", &tps},    {"ttft_p50_ms", &ttft50},
        {"itl_p50_ms", &itl50},    {"itl_tail_ms", &itlTail},
        {"tpot_p50_ms", &tpot50}};
    const char *sep = "";
    for (const auto &[name, xs] : series) {
        extra << sep << jsonString(name) << ": [";
        for (size_t k = 0; k < xs->size(); ++k)
            extra << (k ? ", " : "") << num((*xs)[k]);
        extra << "]";
        sep = ", ";
    }
    extra << "}, \"check_s\": {\"replay\": "
          << num(replayCheckS) << ", \"quality\": " << num(qualityS) << "}"
          << ", \"percentiles\": {"
          << "\"ttft_p50_ms\": " << jsonString(pctOf(50, ttftMin) + perEpisode)
          << ", \"ttft_tail_ms\": "
          << jsonString(pctOf(ttftP, lat.ttftMs.size()) + " pooled")
          << ", \"itl_p50_ms\": " << jsonString(pctOf(50, itlMin) + perEpisode)
          << ", \"itl_tail_ms\": " << jsonString(pctOf(itlP, itlMin) + perEpisode)
          << ", \"tpot_p50_ms\": " << jsonString(pctOf(50, tpotMin) + perEpisode)
          << "}, \"quality\": {\"requests\": " << q.requests
          << ", \"positions\": " << q.positions << ", \"raw_nmse\": "
          << num(nmse) << ", \"nmse_floor\": " << num(kNmseFloor)
          << ", \"reference\": \"fp32 KV, no scheme, serial backend\"}"
          << workJson(eps, kMinEpisodes);
    printHeader(a, w[0], backend, extra.str());

    const std::vector<Metric> metrics = {
        {"setup_s", median(setupS), "s",
         "median of " + std::to_string(setupS.size()) + " set-ups"},
        {"tokens_per_s", median(tps), "tok/s",
         "median of " + std::to_string(tps.size()) + " episodes"},
        {"ttft_p50_ms", median(ttft50), "ms", pctOf(50, ttftMin) + perEpisode},
        {"ttft_tail_ms", pct(lat.ttftMs, ttftP), "ms",
         pctOf(ttftP, lat.ttftMs.size()) + " pooled"},
        {"itl_p50_ms", median(itl50), "ms", pctOf(50, itlMin) + perEpisode},
        {"itl_tail_ms", median(itlTail), "ms",
         pctOf(itlP, itlMin) + perEpisode},
        {"tpot_p50_ms", median(tpot50), "ms", pctOf(50, tpotMin) + perEpisode},
        {"slo_attain", ratio(lat.sloMet, lat.attempted), "fraction",
         std::to_string(lat.sloMet) + " of " +
             std::to_string(lat.attempted) + " requests"},
        {"served_frac", ratio(lat.finished, lat.attempted), "fraction",
         std::to_string(lat.finished) + " of " +
             std::to_string(lat.attempted)},
        {"peak_kv_mib", median(peakKv), "MiB",
         "median over episodes of BlockPoolStats::peakAllocatedBytes"},
        {"peak_rss_mib", peakRssMiB, "MiB", "getrusage ru_maxrss"},
        {"logit_nmse", std::max(nmse, kNmseFloor), "nmse",
         "raw " + num(nmse) + ", floor " + num(kNmseFloor)},
        {"token_match", ratio(double(q.matches), double(q.positions)),
         "fraction",
         std::to_string(q.matches) + " of " + std::to_string(q.positions)},
    };
    printResult(metrics, lat.attempted, lat.attempted - lat.finished);
    return 0;
}

// ---- --trace 1: per-layer metrics -------------------------------------------

int
runTraced(const Args &a, Episodes &w, Backend backend)
{
    std::vector<EpisodeOut> plain, traced;
    const auto start = Clock::now();
    while (traced.size() < kMinPairs || seconds(start) < a.seconds) {
        const size_t k = traced.size();
        plain.push_back(runEpisode(w[k], backend, false));
        traced.push_back(runEpisode(w[k], backend, true));
        checkSameWork(w[k].name(), k, plain[k], traced[k]);
    }
    if (w[0].config().scheduler.maxPreemptions > 0)
        checkPlainReplay(w[0], backend, plain[0]);

    std::filesystem::create_directories(a.traceDir);
    const std::string tracePath = a.traceDir + "/" + w[0].name() + "-seed" +
                                  std::to_string(a.seed) + ".json";
    sb::Tracer::writeChrome(traced[0].spans, tracePath);

    // Counts come from the first episode (the same work on every run of a
    // seed); times are medians over every traced episode.
    std::vector<double> stepMs, submitUs, queueMs;
    std::vector<double> unattributed, proj, app, hist, attn, gflops;
    std::vector<double> gemmCalls, gemmShare, gops, overhead;
    std::map<std::string, std::vector<double>> selfMs;
    size_t stepBase = 0;
    for (size_t k = 0; k < traced.size(); ++k) {
        const EpisodeOut &e = traced[k];
        const ModelConfig &m = w[k].config().model;
        const double steps = double(e.stats.steps);
        const double projFlops =
            2.0 * m.nLayers * m.dModel *
            (2.0 * m.dModel + 2.0 * m.kvHeads * m.headDim() + 2.0 * m.dFfn) *
            double(e.stats.batchedRows);
        double stepWall = 0.0, stepEngine = 0.0;
        for (const sb::Span &s : e.spans) {
            const double us = s.endUs - s.startUs;
            if (std::string(s.name) == "serve.step") {
                stepMs.push_back(us / 1e3);
                stepWall += us;
                stepEngine += sb::spanArg(s, "engine_us");
            } else if (std::string(s.name) == "serve.submit") {
                submitUs.push_back(us);
            }
        }
        if (k + 1 == kMinPairs)
            stepBase = stepMs.size();
        for (const ServeResult &r : e.results)
            queueMs.push_back(r.metrics.queuedUs / 1e3);
        unattributed.push_back(ratio(stepWall - stepEngine, stepWall));
        const DecodePhaseTimes &p = e.phases;
        proj.push_back(p.projectionsUs / 1e3 / steps);
        app.push_back(p.appendUs / 1e3 / steps);
        hist.push_back(p.historyUs / 1e3 / steps);
        attn.push_back(p.attentionUs / 1e3 / steps);
        gflops.push_back(ratio(projFlops, p.projectionsUs * 1e3));
        gemmCalls.push_back(double(e.gemmCalls) / steps);
        gemmShare.push_back(ratio(e.gemmUs, p.projectionsUs));
        gops.push_back(ratio(e.gemmOps, e.gemmUs * 1e3));
        overhead.push_back(e.wallS / plain[k].wallS - 1.0);
        for (const auto &[name, us] : sb::selfTimesUs(e.spans))
            selfMs[name].push_back(us / 1e3 / steps);
    }
    const int stepP = tailPercentile(stepBase);

    // KV: stored bytes per cached token across every (layer, kv-head, K|V)
    // store; the bytes read per output token are computed from the history
    // each output token attends over, not measured.
    const EpisodeOut &e0 = traced[0];
    const SchedulerStats &st = e0.stats;
    const ModelConfig &m0 = w[0].config().model;
    const double bytesPerToken = double(e0.pool.blockBytes) /
                                 double(e0.pool.blockTokens) * 2.0 *
                                 m0.nLayers * m0.kvHeads;
    double prompt = 0.0, output = 0.0, readRows = 0.0;
    for (size_t i = 0; i < e0.records.size(); ++i) {
        const double p = double(e0.records[i].spec.promptTokens.size());
        const double n = double(e0.outputs[i].size());
        prompt += p;
        output += n;
        readRows += n * p + n * (n - 1) / 2.0;
    }

    // Every layer's self time goes in the attribution line; only the
    // serving layer's, which every workload has, is also a metric, so no
    // reported time reads 0 on a workload that lacks the layer.
    std::ostringstream extra;
    extra << ", \"self_ms_per_step\": {";
    const char *sep = "";
    for (const auto &[name, ms] : selfMs) {
        extra << sep << jsonString(name) << ": " << num(median(ms));
        sep = ", ";
    }
    extra << "}, \"episodes\": {\"untraced\": " << plain.size()
          << ", \"traced\": " << traced.size() << "}"
          << ", \"percentiles\": {\"serve.step_ms_tail\": "
          << jsonString(pctOf(stepP, stepMs.size())) << "}"
          << ", \"trace_file\": " << jsonString(tracePath)
          << ", \"computed\": [\"engine.projection_gflops\", "
             "\"tender_gemm.gops\", \"kv.bytes_per_token\", "
             "\"kv.read_kib_per_token\"]"
          << workJson(traced, kMinPairs);
    printHeader(a, w[0], backend, extra.str());

    const auto count = [](int64_t v) { return double(v); };
    const double steps = count(st.steps), rows = count(st.batchedRows);
    const double specSteps = count(st.specSteps);
    const double drafted = count(st.draftedTokens);
    const double accepted = count(st.acceptedDraftTokens);
    const double fallback = count(st.specFallbackSteps);
    const double peakAlloc = double(e0.pool.peakAllocatedBlocks);
    const double peakCommit = double(e0.pool.peakCommittedBlocks);
    std::vector<Metric> metrics = {
        {"serve.step_ms_p50", pct(stepMs, 50), "ms",
         pctOf(50, stepMs.size())},
        {"serve.step_ms_tail", pct(stepMs, stepP), "ms",
         pctOf(stepP, stepMs.size())},
        {"serve.submit_us_p50", pct(submitUs, 50), "us",
         pctOf(50, submitUs.size())},
        {"serve.queue_wait_ms_p50", pct(queueMs, 50), "ms",
         pctOf(50, queueMs.size())},
        {"serve.unattributed_frac", median(unattributed), "fraction",
         "step wall time outside the engine phases"},
        {"scheduler.steps", steps, "count", "first episode"},
        {"scheduler.rows_per_step", ratio(rows, steps), "rows", ""},
        {"scheduler.prefill_row_frac", ratio(count(st.prefillRows), rows),
         "fraction", ""},
        {"scheduler.deferred", count(st.deferred), "count", ""},
        {"scheduler.overtakes", count(st.overtakes), "count", ""},
        {"scheduler.preemptions", count(st.preemptions), "count", ""},
        {"scheduler.resumes", count(st.resumes), "count", ""},
        {"scheduler.resumed_rows_reused", count(st.resumedRowsReused),
         "rows", ""},
        {"prefix.hit_rate",
         ratio(count(st.prefixHits), count(st.prefixHits + st.prefixMisses)),
         "fraction", ""},
        {"prefix.skipped_row_frac", ratio(count(st.prefillSkippedRows), prompt),
         "fraction", "skipped rows / prompt tokens submitted"},
        {"prefix.evictions", count(st.prefixEvictions), "count", ""},
        {"pool.peak_allocated_blocks", peakAlloc, "blocks", ""},
        {"pool.peak_committed_blocks", peakCommit, "blocks", ""},
        {"pool.reserved_unused_frac",
         ratio(peakCommit - peakAlloc, peakCommit), "fraction",
         "(peak committed - peak allocated) / peak committed"},
        {"pool.cow_copies", count(e0.cowCopies), "count", ""},
        {"pool.parks", count(e0.parks), "count", ""},
        {"kv.bytes_per_token", bytesPerToken, "B", "stored, computed"},
        {"kv.read_kib_per_token",
         ratio(readRows * bytesPerToken / 1024.0, output), "KiB",
         "computed from history lengths"},
        {"engine.projections_ms_per_step", median(proj), "ms", ""},
        {"engine.append_ms_per_step", median(app), "ms", ""},
        {"engine.history_ms_per_step", median(hist), "ms", ""},
        {"engine.attention_ms_per_step", median(attn), "ms", ""},
        {"engine.projection_gflops", median(gflops), "GFLOP/s",
         "computed FLOPs / measured projections time"},
        {"tender_gemm.calls_per_step", median(gemmCalls), "count", ""},
        {"tender_gemm.share_of_projections", median(gemmShare), "fraction",
         ""},
        {"tender_gemm.gops", median(gops), "GOP/s",
         "computed 2mkn / measured matmul time"},
        {"draft.acceptance", ratio(accepted, drafted), "fraction", ""},
        {"draft.tokens_per_spec_step", ratio(accepted + specSteps, specSteps),
         "tokens", "emitted per verification step"},
        {"draft.fallback_frac", ratio(fallback, fallback + specSteps),
         "fraction", ""},
        {"trace.overhead_frac", median(overhead), "fraction",
         "median over episodes of traced / untraced wall - 1"},
    };
    for (const char *span : {"serve.step", "serve.submit"})
        metrics.push_back({std::string("self_ms_per_step.") + span,
                           median(selfMs[span]), "ms",
                           "span self time per scheduler step"});
    int attempted = 0;
    for (const EpisodeOut &e : traced)
        attempted += int(e.records.size());
    printResult(metrics, attempted, 0);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::vector<std::string> names = sb::workloadNames();
    if (std::find(names.begin(), names.end(), args.workload) == names.end())
        fail("unknown workload " + args.workload);
    Episodes w(args.workload, args.seed);
    // The process-default backend (TENDER_BACKEND), at the workload's
    // worker count, so stray defaultKernels() users share the pool size.
    const Backend backend = defaultKernels().backend();
    setDefaultKernels(backend, w[0].config().workers);
    return args.trace ? runTraced(args, w, backend)
                      : runEndToEnd(args, w, backend);
}
