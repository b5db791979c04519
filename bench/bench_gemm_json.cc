/**
 * @file
 * Kernel-layer performance recorder: serial vs threaded vs packed FP32
 * GEMM and Tender chunk pipeline on a transformer-scale workload, emitted
 * as BENCH_gemm.json so the perf trajectory of the repo is tracked PR
 * over PR (run via scripts/bench_gemm.sh).
 *
 * The timed Tender products request no stats, so the serial arm runs the
 * golden walk and the threaded and packed arms fold every chunk inside the
 * per-chunk bound into one int16 dot-product GEMM (core/tender_gemm.h),
 * column slices spread over the pool. Both pooled arms must equal the
 * golden walk bit for bit (nmse_threaded_vs_serial and
 * nmse_packed_vs_serial exactly 0 on every host); fold_fallback_chunks
 * counts the chunks outside the bound, which walk instead. The packed arm
 * adds the SIMD microkernels of tensor/packed_gemm: fp32 GEMM is
 * NMSE-gated against the serial oracle (simd_gemm_nmse, bound recorded
 * alongside), while the integer kernels stay bit-exact (int8_bitexact) —
 * all machine-checked by scripts/check_bench.py and by this binary's own
 * exit code.
 *
 * The tender_prepared section times what preparing a weight saves: a
 * per-call tenderMatmul (quantize the weight, then the pipeline) against
 * the same product on a weight quantized once (TenderScheme::prepare), at
 * the serving replica's weight shapes and at K = 2048 and 4096, for one
 * decode row and for one whole row chunk, recording each shape's fold
 * fallbacks. The prepared product must be bit-identical to the per-call
 * one on every backend (prepared_bitexact, gated).
 *
 * The tender_segmented section times a serving step's projection as the
 * decode engine runs it: one segmented product over every request's rows
 * (PreparedWeight::matmulSegments) against the per-segment loop it
 * replaced (the base-class default, one prepared product per segment), for
 * a decode step (eight one-row segments) and a mixed step (a 256-row
 * prefill beside seven decode rows) at the serving replica's weight
 * shapes. Every segmented product must equal the per-segment loop bit for
 * bit on the serial, threaded and packed backends (segmented_bitexact,
 * gated).
 *
 * Usage: bench_gemm_json [--smoke] [m k n workers out.json]
 * Defaults: 512 4096 4096 8 BENCH_gemm.json (the ISSUE-1 workload);
 * --smoke shrinks to 64x256x256 with 2 workers for the CI smoke job.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/tender_gemm.h"
#include "core/tender_scheme.h"
#include "quant/metrics.h"
#include "tensor/kernels.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** gemmInt8 serial-vs-packed bit-exactness over decode-like panels,
 *  including the folded-rescale (wide-code) and single-row shapes. */
bool
int8BitExact(const tender::KernelContext &serial,
             const tender::KernelContext &packed)
{
    using namespace tender;
    Rng rng(99);
    struct Shape { int m, n, k, aAbs; };
    const Shape shapes[] = {
        {1, 64, 64, 127},     // single-query decode panel
        {8, 33, 128, 127},    // multi-query panel, ragged history
        {5, 16, 96, 16256},   // alpha-rescale folded into query codes
    };
    for (const Shape &sh : shapes) {
        IntMatrix a(sh.m, sh.k), b(sh.n, sh.k);
        for (auto &v : a.data())
            v = int32_t(rng.randint(-sh.aAbs, sh.aAbs));
        for (auto &v : b.data())
            v = int32_t(rng.randint(-127, 127));
        const IntMatrix cs = serial.gemmInt8(a, b);
        const IntMatrix cp = packed.gemmInt8(a, b);
        for (int i = 0; i < sh.m; ++i)
            for (int j = 0; j < sh.n; ++j)
                if (cs(i, j) != cp(i, j))
                    return false;
    }
    return true;
}

/** Chunks of `x` outside the per-chunk fold bound: the chunks a pooled
 *  product without stats runs through the golden walk. */
int
foldFallbackChunks(const tender::Matrix &x, const tender::TenderConfig &cfg)
{
    using namespace tender;
    int fallbacks = 0;
    for (const auto &[r0, r1] : chunkRanges(x.rows(), cfg.rowChunk)) {
        const Matrix chunk = x.rowSlice(r0, r1);
        const QuantizedChunk qc =
            quantizeChunk(chunk, decomposeChunk(chunk, cfg), cfg.bits);
        if (!foldedChunkFits(qc, cfg))
            ++fallbacks;
    }
    return fallbacks;
}

/** One tender_prepared row: median µs of a per-call and a prepared
 *  product of an m x k activation with a k x n weight. */
struct PreparedTiming
{
    int m, k, n;
    int foldFallbacks; ///< chunks of the activation outside the fold bound
    double perCallUs, preparedUs;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Time per-call against prepared products at the OPT-6.7B /16 serving
 *  replica's weight shapes (q/k/v/o 256x256, fc1 256x1024, fc2 1024x256)
 *  and at K = 2048 and 4096, on `timed`, alternating the two paths `reps`
 *  times each; *bitexact turns false unless every prepared product equals
 *  the per-call one on every context in `check`. */
std::vector<PreparedTiming>
timePrepared(const tender::TenderConfig &cfg,
             const tender::KernelContext &timed,
             const std::vector<const tender::KernelContext *> &check,
             int reps, bool *bitexact)
{
    using namespace tender;
    Rng rng(7);
    std::vector<PreparedTiming> rows;
    const int shapes[][2] = {{256, 256}, {256, 1024}, {1024, 256},
                             {2048, 256}, {4096, 256}};
    for (const auto &shape : shapes) {
        const int k = shape[0], n = shape[1];
        const Matrix w = randomGaussian(k, n, rng, 0.f, 0.05f);
        for (int m : {1, cfg.rowChunk}) {
            const Matrix x = randomGaussian(m, k, rng);
            for (const KernelContext *kc : check) {
                TenderScheme scheme(cfg);
                scheme.setKernels(kc);
                if (!(scheme.prepare(w)->matmul(x) ==
                      tenderMatmul(x, w, cfg, nullptr, kc)))
                    *bitexact = false;
            }
            TenderScheme scheme(cfg);
            scheme.setKernels(&timed);
            const auto prepared = scheme.prepare(w);
            std::vector<double> per_call, pre;
            for (int r = 0; r < reps; ++r) {
                auto t0 = Clock::now();
                const Matrix a = tenderMatmul(x, w, cfg, nullptr, &timed);
                auto t1 = Clock::now();
                const Matrix b = prepared->matmul(x);
                auto t2 = Clock::now();
                per_call.push_back(seconds(t0, t1) * 1e6);
                pre.push_back(seconds(t1, t2) * 1e6);
            }
            rows.push_back({m, k, n, foldFallbackChunks(x, cfg),
                            median(per_call), median(pre)});
        }
    }
    return rows;
}

/** Bitwise equality: operator== would also accept -0.0 for +0.0. */
bool
bitIdentical(const tender::Matrix &a, const tender::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
        std::memcmp(a.data().data(), b.data().data(),
                    a.size() * sizeof(float)) == 0;
}

/** One tender_segmented row: median µs of one step's projection, as the
 *  per-segment loop and as one segmented product. */
struct SegmentedTiming
{
    const char *step;
    int segments, rows, k, n;
    double perSegmentUs, segmentedUs;
};

/** Time the per-segment loop against the segmented product of a decode
 *  step (eight one-row segments) and a mixed step (one 256-row segment and
 *  seven one-row ones) at the replica's weight shapes (q/k/v/o 256x256,
 *  fc1 256x1024, fc2 1024x256), on `timed`, alternating the two `reps`
 *  times each; *bitexact turns false unless every segmented product
 *  equals the per-segment loop on every context in `check`. */
std::vector<SegmentedTiming>
timeSegmented(const tender::TenderConfig &cfg,
              const tender::KernelContext &timed,
              const std::vector<const tender::KernelContext *> &check,
              int reps, bool *bitexact)
{
    using namespace tender;
    struct Step
    {
        const char *name;
        std::vector<int> segments;
    };
    const Step steps[] = {{"decode", {1, 1, 1, 1, 1, 1, 1, 1}},
                          {"mixed", {256, 1, 1, 1, 1, 1, 1, 1}}};
    const int shapes[][2] = {{256, 256}, {256, 1024}, {1024, 256}};
    Rng rng(11);
    std::vector<SegmentedTiming> rows;
    for (const auto &shape : shapes) {
        const int k = shape[0], n = shape[1];
        const Matrix w = randomGaussian(k, n, rng, 0.f, 0.05f);
        for (const Step &step : steps) {
            int m = 0;
            for (int r : step.segments)
                m += r;
            const Matrix x = randomGaussian(m, k, rng);
            for (const KernelContext *kc : check) {
                TenderScheme scheme(cfg);
                scheme.setKernels(kc);
                const auto prepared = scheme.prepare(w);
                if (!bitIdentical(
                        prepared->matmulSegments(x, step.segments),
                        prepared->PreparedWeight::matmulSegments(
                            x, step.segments)))
                    *bitexact = false;
            }
            TenderScheme scheme(cfg);
            scheme.setKernels(&timed);
            const auto prepared = scheme.prepare(w);
            std::vector<double> per_segment, segmented;
            for (int r = 0; r < reps; ++r) {
                auto t0 = Clock::now();
                const Matrix a = prepared->PreparedWeight::matmulSegments(
                    x, step.segments);
                auto t1 = Clock::now();
                const Matrix b = prepared->matmulSegments(x, step.segments);
                auto t2 = Clock::now();
                per_segment.push_back(seconds(t0, t1) * 1e6);
                segmented.push_back(seconds(t1, t2) * 1e6);
            }
            rows.push_back({step.name, int(step.segments.size()), m, k, n,
                            median(per_segment), median(segmented)});
        }
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tender;

    bool smoke = false;
    std::vector<const char *> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            positional.push_back(argv[i]);
    }
    const int m =
        positional.size() > 0 ? std::atoi(positional[0]) : (smoke ? 64 : 512);
    const int k = positional.size() > 1 ? std::atoi(positional[1])
                                        : (smoke ? 256 : 4096);
    const int n = positional.size() > 2 ? std::atoi(positional[2])
                                        : (smoke ? 256 : 4096);
    const int workers =
        positional.size() > 3 ? std::atoi(positional[3]) : (smoke ? 2 : 8);
    const char *out_path =
        positional.size() > 4 ? positional[4] : "BENCH_gemm.json";

    std::printf("== BENCH gemm%s: %dx%dx%d, %d workers ==\n",
                smoke ? " (smoke)" : "", m, k, n, workers);

    // Machine-speed reference for check_bench.py's baseline comparison
    // (normalizes perf fields recorded at a different host speed).
    const double calibration = bench::calibrationScoreMflops();
    std::printf("calibration (%s): %.1f MFLOP/s\n",
                bench::kCalibrationWorkload, calibration);

    Rng rng(42);
    const Matrix x = randomGaussian(m, k, rng);
    const Matrix w = randomGaussian(k, n, rng, 0.f, 0.05f);

    KernelContext serial(Backend::Serial);
    KernelContext threaded(Backend::Threaded, workers);
    KernelContext packed(Backend::Packed, workers);
    std::printf("simd: %s, packed arm resolves to: %s\n",
                simdDescription().c_str(),
                backendName(packed.backend()).c_str());

    // ---- FP32 GEMM -------------------------------------------------------
    const double flops = 2.0 * double(m) * double(k) * double(n);
    auto t0 = Clock::now();
    const Matrix y_s = serial.gemm(x, w);
    auto t1 = Clock::now();
    const Matrix y_t = threaded.gemm(x, w);
    auto t2 = Clock::now();
    const Matrix y_p = packed.gemm(x, w);
    auto t3 = Clock::now();
    const double gemm_serial_s = seconds(t0, t1);
    const double gemm_threaded_s = seconds(t1, t2);
    const double gemm_packed_s = seconds(t2, t3);
    const double gemm_max_abs_diff = maxAbsDiff(y_s, y_t);
    // The packed fp32 arm reassociates the reduction, so it is NMSE-gated
    // against the serial oracle instead of bit-compared.
    const double simd_gemm_nmse = nmse(y_s, y_p);
    const double simd_gemm_nmse_bound = 2e-3;
    std::printf("fp32 gemm: serial %.3fs (%.2f GFLOP/s), threaded %.3fs "
                "(%.2f GFLOP/s), speedup %.2fx, maxAbsDiff %.3g\n",
                gemm_serial_s, flops / gemm_serial_s * 1e-9,
                gemm_threaded_s, flops / gemm_threaded_s * 1e-9,
                gemm_serial_s / gemm_threaded_s, gemm_max_abs_diff);
    std::printf("fp32 gemm packed: %.3fs (%.2f GFLOP/s), %.2fx vs serial, "
                "nmse %.3g (bound %.1g)\n",
                gemm_packed_s, flops / gemm_packed_s * 1e-9,
                gemm_serial_s / gemm_packed_s, simd_gemm_nmse,
                simd_gemm_nmse_bound);
    const bool int8_bitexact = int8BitExact(serial, packed);
    std::printf("gemmInt8 packed vs serial: %s\n",
                int8_bitexact ? "bit-exact" : "MISMATCH");

    // ---- Tender chunk pipeline ------------------------------------------
    TenderConfig cfg;
    cfg.bits = 8;
    cfg.numGroups = 8;
    cfg.rowChunk = 64;
    cfg.checkOverflow = false; // measure MAC throughput, not the checker
    const double macs = double(m) * double(k) * double(n);
    const double chunks = double(chunkRanges(m, cfg.rowChunk).size());
    const int fold_fallbacks = foldFallbackChunks(x, cfg);

    t0 = Clock::now();
    const Matrix ty_s = tenderMatmul(x, w, cfg, nullptr, &serial);
    t1 = Clock::now();
    const Matrix ty_t = tenderMatmul(x, w, cfg, nullptr, &threaded);
    t2 = Clock::now();
    const Matrix ty_p = tenderMatmul(x, w, cfg, nullptr, &packed);
    t3 = Clock::now();
    const double tender_serial_s = seconds(t0, t1);
    const double tender_threaded_s = seconds(t1, t2);
    const double tender_packed_s = seconds(t2, t3);
    // The pooled arms fold, in exact integer arithmetic, so both are held
    // to bit parity with the golden walk.
    const double tender_nmse = nmse(ty_s, ty_t);
    const double tender_packed_nmse = nmse(ty_s, ty_p);
    std::printf("tenderMatmul: serial %.3fs (%.2f GMAC/s, %.1f chunks/s), "
                "threaded %.3fs (%.2f GMAC/s, %.1f chunks/s), "
                "speedup %.2fx, nmse %.3g, fold fallbacks %d/%.0f\n",
                tender_serial_s, macs / tender_serial_s * 1e-9,
                chunks / tender_serial_s,
                tender_threaded_s, macs / tender_threaded_s * 1e-9,
                chunks / tender_threaded_s,
                tender_serial_s / tender_threaded_s, tender_nmse,
                fold_fallbacks, chunks);
    std::printf("tenderMatmul packed: %.3fs (%.2f GMAC/s), %.2fx vs "
                "serial, nmse %.3g\n",
                tender_packed_s, macs / tender_packed_s * 1e-9,
                tender_serial_s / tender_packed_s, tender_packed_nmse);

    // ---- Prepared (quantize-once) weights ---------------------------------
    // Timed as the serving benchmark's w8a8_batch runs the replica: its
    // scheme (8-bit, G = 8, 32-row chunks) on a 2-worker threaded pool.
    TenderConfig serve_cfg;
    serve_cfg.rowChunk = 32;
    KernelContext serving(Backend::Threaded, 2);
    const int prepared_reps = 21;
    bool prepared_bitexact = true;
    const std::vector<PreparedTiming> prepared_rows =
        timePrepared(serve_cfg, serving,
                     {&serial, &threaded, &packed, &serving}, prepared_reps,
                     &prepared_bitexact);
    for (const PreparedTiming &p : prepared_rows)
        std::printf("tender prepared %dx%dx%d (%d fold fallbacks): "
                    "per-call %.1f us, prepared %.1f us (%.2fx)\n",
                    p.m, p.k, p.n, p.foldFallbacks, p.perCallUs,
                    p.preparedUs, p.perCallUs / p.preparedUs);
    std::printf("prepared vs per-call: %s\n",
                prepared_bitexact ? "bit-exact" : "MISMATCH");

    // ---- Segmented serving steps ------------------------------------------
    bool segmented_bitexact = true;
    const std::vector<SegmentedTiming> segmented_rows =
        timeSegmented(serve_cfg, serving, {&serial, &threaded, &packed},
                      prepared_reps, &segmented_bitexact);
    for (const SegmentedTiming &s : segmented_rows)
        std::printf("tender segmented %s step (%d segments, %d rows) "
                    "%dx%d: per-segment %.1f us, segmented %.1f us "
                    "(%.2fx)\n",
                    s.step, s.segments, s.rows, s.k, s.n, s.perSegmentUs,
                    s.segmentedUs, s.perSegmentUs / s.segmentedUs);
    std::printf("segmented vs per-segment: %s\n",
                segmented_bitexact ? "bit-exact" : "MISMATCH");

    FILE *f = std::fopen(out_path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", out_path);
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"workload\": {\"m\": %d, \"k\": %d, \"n\": %d, "
                 "\"row_chunk\": %d, \"bits\": %d, \"groups\": %d},\n",
                 m, k, n, cfg.rowChunk, cfg.bits, cfg.numGroups);
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"workers\": %d,\n", workers);
    std::fprintf(f, "  \"simd\": \"%s\",\n", simdDescription().c_str());
    std::fprintf(f, "  \"packed_backend\": \"%s\",\n",
                 backendName(packed.backend()).c_str());
    // TENDER_BACKEND / TENDER_NUM_THREADS as this process resolved them,
    // so every recorded number is attributable to the environment arm.
    std::fprintf(f, "  \"default_backend\": \"%s\",\n",
                 backendName(defaultKernels().backend()).c_str());
    std::fprintf(f, "  \"default_workers\": %d,\n",
                 defaultKernels().workers());
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f,
                 "  \"calibration\": {\"workload\": \"%s\", "
                 "\"score_mflops\": %.1f},\n",
                 bench::kCalibrationWorkload, calibration);
    std::fprintf(f, "  \"gemm\": {\"serial_s\": %.6f, \"threaded_s\": %.6f, "
                 "\"serial_gflops\": %.3f, \"threaded_gflops\": %.3f, "
                 "\"speedup\": %.3f, \"max_abs_diff\": %.6g},\n",
                 gemm_serial_s, gemm_threaded_s,
                 flops / gemm_serial_s * 1e-9,
                 flops / gemm_threaded_s * 1e-9,
                 gemm_serial_s / gemm_threaded_s, gemm_max_abs_diff);
    std::fprintf(f, "  \"gemm_packed\": {\"packed_s\": %.6f, "
                 "\"packed_gflops\": %.3f, \"speedup_vs_serial\": %.3f, "
                 "\"simd_gemm_nmse\": %.3g, "
                 "\"simd_gemm_nmse_bound\": %.3g, "
                 "\"int8_bitexact\": %s},\n",
                 gemm_packed_s, flops / gemm_packed_s * 1e-9,
                 gemm_serial_s / gemm_packed_s, simd_gemm_nmse,
                 simd_gemm_nmse_bound, int8_bitexact ? "true" : "false");
    std::fprintf(f, "  \"tender\": {\"serial_s\": %.6f, "
                 "\"threaded_s\": %.6f, \"serial_gmacs\": %.3f, "
                 "\"threaded_gmacs\": %.3f, \"serial_chunks_per_s\": %.3f, "
                 "\"threaded_chunks_per_s\": %.3f, \"speedup\": %.3f, "
                 "\"fold_fallback_chunks\": %d, "
                 "\"nmse_threaded_vs_serial\": %.3g},\n",
                 tender_serial_s, tender_threaded_s,
                 macs / tender_serial_s * 1e-9,
                 macs / tender_threaded_s * 1e-9,
                 chunks / tender_serial_s, chunks / tender_threaded_s,
                 tender_serial_s / tender_threaded_s, fold_fallbacks,
                 tender_nmse);
    std::fprintf(f, "  \"tender_packed\": {\"packed_s\": %.6f, "
                 "\"packed_gmacs\": %.3f, \"speedup_vs_serial\": %.3f, "
                 "\"nmse_packed_vs_serial\": %.6g},\n",
                 tender_packed_s, macs / tender_packed_s * 1e-9,
                 tender_serial_s / tender_packed_s, tender_packed_nmse);
    std::fprintf(f, "  \"tender_prepared\": {\"backend\": \"%s\", "
                 "\"workers\": %d, \"row_chunk\": %d, \"bits\": %d, "
                 "\"groups\": %d, \"reps\": %d, \"stat\": \"median\", "
                 "\"shapes\": [\n",
                 backendName(serving.backend()).c_str(), serving.workers(),
                 serve_cfg.rowChunk, serve_cfg.bits, serve_cfg.numGroups,
                 prepared_reps);
    for (size_t i = 0; i < prepared_rows.size(); ++i) {
        const PreparedTiming &p = prepared_rows[i];
        std::fprintf(f, "    {\"m\": %d, \"k\": %d, \"n\": %d, "
                     "\"fold_fallback_chunks\": %d, "
                     "\"per_call_us\": %.1f, \"prepared_us\": %.1f, "
                     "\"speedup\": %.3f}%s\n",
                     p.m, p.k, p.n, p.foldFallbacks,
                     p.perCallUs, p.preparedUs,
                     p.perCallUs / p.preparedUs,
                     i + 1 < prepared_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ], \"prepared_bitexact\": %s},\n",
                 prepared_bitexact ? "true" : "false");
    std::fprintf(f, "  \"tender_segmented\": {\"backend\": \"%s\", "
                 "\"workers\": %d, \"row_chunk\": %d, \"reps\": %d, "
                 "\"stat\": \"median\", \"steps\": [\n",
                 backendName(serving.backend()).c_str(), serving.workers(),
                 serve_cfg.rowChunk, prepared_reps);
    for (size_t i = 0; i < segmented_rows.size(); ++i) {
        const SegmentedTiming &s = segmented_rows[i];
        std::fprintf(f, "    {\"step\": \"%s\", \"segments\": %d, "
                     "\"rows\": %d, \"k\": %d, \"n\": %d, "
                     "\"per_segment_us\": %.1f, \"segmented_us\": %.1f, "
                     "\"speedup\": %.3f}%s\n",
                     s.step, s.segments, s.rows, s.k, s.n, s.perSegmentUs,
                     s.segmentedUs, s.perSegmentUs / s.segmentedUs,
                     i + 1 < segmented_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ], \"segmented_bitexact\": %s}\n",
                 segmented_bitexact ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
    // The pooled bit-parity arms must be exactly the oracle, the packed
    // fp32 arm must sit under its NMSE bound, and the packed integer
    // kernels must be exact; any violation fails the bench job outright.
    const bool ok = gemm_max_abs_diff == 0.0 && tender_nmse == 0.0 &&
        simd_gemm_nmse >= 0.0 && simd_gemm_nmse <= simd_gemm_nmse_bound &&
        int8_bitexact && tender_packed_nmse == 0.0 && prepared_bitexact &&
        segmented_bitexact;
    return ok ? 0 : 1;
}
