/**
 * @file
 * Shared machinery for the per-table/per-figure bench harnesses.
 *
 * Accuracy harnesses run the statistical-replica pipeline (DESIGN.md §1):
 * a reduced transformer with family-calibrated outlier statistics executes
 * every GEMM under each scheme; the measured aggregate error maps to the
 * paper's reporting units through the two-anchor proxy of
 * model/perplexity.h. Anchor rows (INT8/INT4 per-tensor) therefore
 * reproduce the paper by construction and are marked as such in
 * EXPERIMENTS.md; every other row is a prediction of the pipeline.
 *
 * The JSON recorders (bench_gemm_json, bench_decode_json) share rounds(),
 * which alternates the arms of a comparison, spread(), which summarizes
 * them, and JsonOut, which writes the file and decides the exit code.
 */

#ifndef TENDER_BENCH_BENCH_COMMON_H
#define TENDER_BENCH_BENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/tender_scheme.h"
#include "model/perplexity.h"
#include "model/quant_executor.h"
#include "quant/granularity.h"
#include "tensor/kernels.h"
#include "util/rng.h"
#include "util/table.h"

namespace tender {
namespace bench {

/** Name of the fixed reference workload behind calibrationScoreMflops(),
 *  recorded next to the score so scale mismatches are detectable. */
constexpr const char *kCalibrationWorkload =
    "bench_fixed_loop_fp32_matmul_96x96x96_x4";

/**
 * Fixed reference-workload calibration score for the machine running a
 * bench: best-of-3 timing of a plain single-threaded 96^3 fp32 matmul
 * loop, defined here and repeated 4x, in MFLOP/s.
 * scripts/check_bench.py --compare-baseline divides the baseline's score
 * by the candidate's to normalize tokens/s before applying the
 * regression threshold, so a slower (or noisy-shared) hosted runner
 * stops reading as a perf regression. The loop calls no library kernel,
 * so a kernel change cannot move the yardstick, and it is
 * single-threaded and allocation-light on purpose: the score must track
 * the machine, not the worker count or the allocator.
 */
inline double
calibrationScoreMflops()
{
    Rng rng(7);
    const int n = 96, reps = 4;
    const Matrix a = randomGaussian(n, n, rng);
    const Matrix b = randomGaussian(n, n, rng);
    std::vector<float> c(size_t(n) * size_t(n));
    double best = 0.0;
    double sink = 0.0; // keep the repeated products observable
    for (int attempt = 0; attempt < 3; ++attempt) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < reps; ++r) {
            std::fill(c.begin(), c.end(), 0.f);
            for (int i = 0; i < n; ++i)
                for (int p = 0; p < n; ++p) {
                    const float av = a.rowPtr(i)[p];
                    const float *brow = b.rowPtr(p);
                    float *crow = c.data() + size_t(i) * size_t(n);
                    for (int j = 0; j < n; ++j)
                        crow[j] += av * brow[j];
                }
            sink += double(c[size_t(r)]);
        }
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        best = std::max(best, 2.0 * n * n * n * reps / s * 1e-6);
    }
    if (sink == 0.12345) // never true; defeats dead-code elimination
        std::printf("calibration sink %f\n", sink);
    return best;
}

/** Replica shrink factor and evaluation sequence length used by all
 *  accuracy harnesses (printed in every harness header). */
constexpr int kReplicaDivisor = 32;
constexpr int kSeqLen = 128;

/** Seeds: dataset identity enters through the eval batch seed. */
inline uint64_t
datasetSeed(const std::string &dataset)
{
    return dataset == "wiki" ? 1000 : 2000;
}

/** Build the replica model for a paper model name. */
inline SyntheticModel
makeReplica(const std::string &model_name, uint64_t seed = 1)
{
    return SyntheticModel(replicaOf(modelByName(model_name),
                                    kReplicaDivisor), seed);
}

/** Aggregate error of one scheme on one model/dataset. */
inline double
schemeError(SyntheticModel &model, const GemmScheme &scheme,
            const std::string &dataset, const ExecOptions &opts = {},
            int seq_len = kSeqLen)
{
    const Matrix input = model.sampleInput(seq_len, datasetSeed(dataset));
    return aggregateError(runQuantized(model, input, scheme, opts).records);
}

/** Per-tensor INT8/INT4 anchor errors for the proxy mapping. */
struct AnchorErrors
{
    double e8 = 0.0;
    double e4 = 0.0;
};

inline AnchorErrors
measureAnchors(SyntheticModel &model, const std::string &dataset,
               const ExecOptions &opts = {}, int seq_len = kSeqLen)
{
    AnchorErrors a;
    a.e8 = schemeError(model, UniformScheme(8, Granularity::PerTensor),
                       dataset, opts, seq_len);
    a.e4 = schemeError(model, UniformScheme(4, Granularity::PerTensor),
                       dataset, opts, seq_len);
    return a;
}

/** Proxy-perplexity mapping for one model/dataset pair. */
inline PplModel
makePplModel(const std::string &model_name, const std::string &dataset,
             const AnchorErrors &anchors)
{
    double p8 = 0, p4 = 0;
    paperAnchorPerplexities(model_name, dataset, p8, p4);
    return anchorPplModel(paperBasePerplexity(model_name, dataset),
                          anchors.e8, p8, anchors.e4, p4);
}

/** Tender configuration used across accuracy harnesses (paper defaults,
 *  row chunk shrunk with the replica). */
inline TenderConfig
tenderAccuracyConfig(int bits, int num_groups = 8)
{
    TenderConfig cfg;
    cfg.bits = bits;
    cfg.numGroups = num_groups;
    cfg.rowChunk = 32; // 256 scaled by the replica's 1/8 token budget
    return cfg;
}

/** Harness banner: what replica the numbers come from. */
inline void
printBanner(const std::string &what)
{
    std::printf("== %s ==\n", what.c_str());
    std::printf("substrate: synthetic statistical replica "
                "(divisor %d, seq %d); anchor rows marked [anchor] "
                "reproduce the paper by construction -- see DESIGN.md\n\n",
                kReplicaDivisor, kSeqLen);
}

/** Seconds elapsed since `t0`. */
inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Run every arm `n` times in alternating rounds: round r runs the arms in
 * order starting at arm r % arms.size(), so host drift spreads over all
 * arms instead of landing on whichever runs first. Returns
 * runs[arm][round], so runs[a][r] and runs[b][r] form a pair.
 */
template <class R>
std::vector<std::vector<R>>
rounds(int n, const std::vector<std::function<R()>> &arms)
{
    std::vector<std::vector<R>> runs(arms.size());
    for (int r = 0; r < n; ++r)
        for (size_t i = 0; i < arms.size(); ++i) {
            const size_t a = (size_t(r) + i) % arms.size();
            runs[a].push_back(arms[a]());
        }
    return runs;
}

/** Median of an odd number of samples, with their min and max. */
struct Spread
{
    double median = 0.0, min = 0.0, max = 0.0;
};

/** Index of the median element of `xs` (odd size). */
inline size_t
medianIndex(const std::vector<double> &xs)
{
    std::vector<size_t> order(xs.size());
    std::iota(order.begin(), order.end(), size_t(0));
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return xs[a] < xs[b]; });
    return order[order.size() / 2];
}

inline Spread
spread(const std::vector<double> &xs)
{
    const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
    return {xs[medianIndex(xs)], *lo, *hi};
}

/** Per-round ratios a[r] / b[r] of two arms' figures. */
inline std::vector<double>
ratios(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> r;
    for (size_t i = 0; i < a.size(); ++i)
        r.push_back(a[i] / b[i]);
    return r;
}

/**
 * A bench JSON document built by dotted paths: set("a.b.c", v) creates
 * the objects on the way, and a path segment of digits indexes an array.
 * Members keep their insertion order. gate() records a correctness gate
 * on a path; finish() writes the file, echoes it to stdout, names every
 * failed gate, and returns the process exit code: 0 only if every gate
 * held.
 */
class JsonOut
{
  public:
    template <class T>
    void set(const std::string &path, const T &value)
    {
        node(path).text = render(value);
    }

    /** `path` = the median; `path`_range = [min, max]. */
    void spread(const std::string &path, const Spread &s)
    {
        set(path, s.median);
        set(path + "_range.0", s.min);
        set(path + "_range.1", s.max);
    }

    void gate(const std::string &path, bool ok)
    {
        gates_.emplace_back(path, ok);
    }

    /** set() and gate() for a boolean correctness field. */
    void flag(const std::string &path, bool ok)
    {
        set(path, ok);
        gate(path, ok);
    }

    int finish(const char *out_path) const
    {
        std::string text;
        write(text, root_, 0);
        text += "\n";
        FILE *f = std::fopen(out_path, "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", out_path);
            return 1;
        }
        std::fputs(text.c_str(), f);
        std::fclose(f);
        std::fputs(text.c_str(), stdout);
        int failed = 0;
        for (const auto &[path, ok] : gates_)
            if (!ok) {
                std::fprintf(stderr, "gate failed: %s\n", path.c_str());
                ++failed;
            }
        std::printf("wrote %s: %zu gates, %d failed\n", out_path,
                    gates_.size(), failed);
        return failed == 0 ? 0 : 1;
    }

  private:
    struct Node
    {
        std::string key;
        std::string text; ///< a rendered scalar; empty for containers
        std::vector<Node> kids;
    };

    Node &node(const std::string &path)
    {
        Node *n = &root_;
        for (size_t start = 0;;) {
            const size_t dot = path.find('.', start);
            const std::string key = path.substr(start, dot - start);
            auto it =
                std::find_if(n->kids.begin(), n->kids.end(),
                             [&](const Node &k) { return k.key == key; });
            n = it != n->kids.end() ? &*it
                                    : &n->kids.emplace_back(Node{key, "", {}});
            if (dot == std::string::npos)
                return *n;
            start = dot + 1;
        }
    }

    static std::string render(bool v) { return v ? "true" : "false"; }
    static std::string render(const char *v) { return render(std::string(v)); }
    static std::string render(const std::string &v)
    {
        std::string out = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out + "\"";
    }
    static std::string render(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        return std::isfinite(v) ? buf : "null";
    }
    template <class T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    static std::string render(T v)
    {
        return std::to_string(v);
    }

    /** A container of scalars prints on one line, any other one member
     *  per line; keys of digits make an array. */
    static void write(std::string &out, const Node &n, int depth)
    {
        if (!n.text.empty()) {
            out += n.text;
            return;
        }
        const bool array = !n.kids.empty() &&
            n.kids[0].key.find_first_not_of("0123456789") == std::string::npos;
        const bool flat =
            std::all_of(n.kids.begin(), n.kids.end(),
                        [](const Node &k) { return !k.text.empty(); });
        const std::string pad = "\n" + std::string(size_t(depth) * 2, ' ');
        out += array ? "[" : "{";
        for (size_t i = 0; i < n.kids.size(); ++i) {
            out += flat ? (i ? " " : "") : pad + "  ";
            if (!array)
                out += render(n.kids[i].key) + ": ";
            write(out, n.kids[i], depth + 1);
            if (i + 1 < n.kids.size())
                out += ",";
        }
        if (!flat)
            out += pad;
        out += array ? "]" : "}";
    }

    Node root_;
    std::vector<std::pair<std::string, bool>> gates_;
};

} // namespace bench
} // namespace tender

#endif // TENDER_BENCH_BENCH_COMMON_H
