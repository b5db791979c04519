/**
 * @file
 * Kernel-layer recorder: writes BENCH_gemm.json (run via
 * scripts/bench_gemm.sh).
 *
 * Sections: fp32 GEMM on the serial, threaded and packed arms (gemm,
 * gemm_packed); the Tender product on the same three (tender,
 * tender_packed), requesting no stats, so the serial arm runs the golden
 * walk and the pooled arms fold every chunk inside the per-chunk bound
 * (core/tender_gemm.h), fold_fallback_chunks counting the rest;
 * per-call against prepared (quantize-once) products at the serving
 * replica's weight shapes and at K = 2048 and 4096 (tender_prepared); and
 * a serving step's segmented product against the per-segment loop, for a
 * decode step of eight one-row segments and a mixed step of a 256-row
 * prefill beside seven decode rows (tender_segmented).
 *
 * Every timing runs its arms in alternating rounds (bench::rounds) and
 * records the median with [min, max]. The exit code is the AND of the
 * gates; scripts/check_bench.py states what each one guards.
 *
 * Usage: bench_gemm_json [--smoke] [m k n workers out.json]
 * Defaults: 512 4096 4096, one worker per hardware thread,
 * BENCH_gemm.json; --smoke shrinks to 64x256x256 with 2 workers for CI.
 */

#include <algorithm>
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

using namespace tender;
using bench::JsonOut;
using Clock = std::chrono::steady_clock;

/** A round's arm: time `product`, keeping its result in `out`. */
std::function<double()>
timedArm(Matrix &out, std::function<Matrix()> product)
{
    return [&out, product] {
        const auto t0 = Clock::now();
        Matrix y = product();
        const double s = bench::secondsSince(t0);
        out = std::move(y);
        return s;
    };
}

/** Record one arm's timings at `path`, in `scale` units of a second;
 *  returns the median in seconds. */
double
recordTime(JsonOut &out, const std::string &path, std::vector<double> runs,
           double scale = 1.0)
{
    const double median = bench::spread(runs).median;
    for (double &v : runs)
        v *= scale;
    out.spread(path, bench::spread(runs));
    return median;
}

/** Record the paired per-round ratios a / b at `path`. */
void
recordRatio(JsonOut &out, const std::string &path,
            const std::vector<double> &a, const std::vector<double> &b)
{
    out.spread(path, bench::spread(bench::ratios(a, b)));
}

/** gemmInt8 serial-vs-packed bit-exactness over decode-like panels,
 *  including the folded-rescale (wide-code) and single-row shapes. */
bool
int8BitExact(const KernelContext &serial, const KernelContext &packed)
{
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
        if (!(serial.gemmInt8(a, b) == packed.gemmInt8(a, b)))
            return false;
    }
    return true;
}

/** Chunks of `x` outside the per-chunk fold bound: the chunks a pooled
 *  product without stats runs through the golden walk. */
int
foldFallbackChunks(const Matrix &x, const TenderConfig &cfg)
{
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

/** Bitwise equality: operator== would also accept -0.0 for +0.0. */
bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
        std::memcmp(a.data().data(), b.data().data(),
                    a.size() * sizeof(float)) == 0;
}

/** A product of a fixed (x, w) on a prepared w and a kernel context. */
using Product =
    std::function<Matrix(const PreparedWeight &, const KernelContext &)>;

/** Time product `a` against `b` on a weight prepared for `timed` and
 *  record both, in µs, and their ratio a / b under `path`. Returns
 *  whether the two agree bit for bit on every context in `check`. */
bool
recordProducts(JsonOut &out, const std::string &path, const char *a_key,
               const char *b_key, const Matrix &w, const TenderConfig &cfg,
               const KernelContext &timed,
               const std::vector<const KernelContext *> &check,
               int n_rounds, const Product &a, const Product &b)
{
    bool same = true;
    for (const KernelContext *kc : check) {
        TenderScheme scheme(cfg);
        scheme.setKernels(kc);
        const auto pw = scheme.prepare(w);
        same = same && bitIdentical(a(*pw, *kc), b(*pw, *kc));
    }
    TenderScheme scheme(cfg);
    scheme.setKernels(&timed);
    const auto pw = scheme.prepare(w);
    Matrix ya, yb;
    const auto runs = bench::rounds(
        n_rounds, std::vector<std::function<double()>>{
                  timedArm(ya, [&] { return a(*pw, timed); }),
                  timedArm(yb, [&] { return b(*pw, timed); })});
    recordTime(out, path + "." + a_key, runs[0], 1e6);
    recordTime(out, path + "." + b_key, runs[1], 1e6);
    recordRatio(out, path + ".speedup", runs[0], runs[1]);
    return same;
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
    const int m =
        positional.size() > 0 ? std::atoi(positional[0]) : (smoke ? 64 : 512);
    const int k = positional.size() > 1 ? std::atoi(positional[1])
                                        : (smoke ? 256 : 4096);
    const int n = positional.size() > 2 ? std::atoi(positional[2])
                                        : (smoke ? 256 : 4096);
    const int hw = std::max(1, int(std::thread::hardware_concurrency()));
    const int workers =
        positional.size() > 3 ? std::atoi(positional[3]) : (smoke ? 2 : hw);
    const char *out_path =
        positional.size() > 4 ? positional[4] : "BENCH_gemm.json";
    // Products that take microseconds (every smoke product, and the
    // prepared and segmented rows) run more rounds than the full-size
    // ones, which take seconds on the serial arm.
    const int micro_rounds = 21;
    const int n_rounds = smoke ? micro_rounds : 5;

    Rng rng(42);
    const Matrix x = randomGaussian(m, k, rng);
    const Matrix w = randomGaussian(k, n, rng, 0.f, 0.05f);
    KernelContext serial(Backend::Serial);
    KernelContext threaded(Backend::Threaded, workers);
    KernelContext packed(Backend::Packed, workers);
    TenderConfig cfg;
    cfg.bits = 8;
    cfg.numGroups = 8;
    cfg.rowChunk = 64;
    cfg.checkOverflow = false; // measure MAC throughput, not the checker

    JsonOut out;
    out.set("workload.m", m);
    out.set("workload.k", k);
    out.set("workload.n", n);
    out.set("workload.row_chunk", cfg.rowChunk);
    out.set("workload.bits", cfg.bits);
    out.set("workload.groups", cfg.numGroups);
    out.set("smoke", smoke);
    out.set("workers", workers);
    out.set("rounds", n_rounds);
    out.set("simd", simdDescription());
    out.set("packed_backend", backendName(packed.backend()));
    // TENDER_BACKEND / TENDER_NUM_THREADS as this process resolved them.
    out.set("default_backend", backendName(defaultKernels().backend()));
    out.set("default_workers", defaultKernels().workers());
    out.set("hardware_threads", std::thread::hardware_concurrency());
    // Machine-speed reference for check_bench.py's baseline comparison.
    out.set("calibration.workload", bench::kCalibrationWorkload);
    out.set("calibration.score_mflops", bench::calibrationScoreMflops());

    // ---- fp32 GEMM on the three arms -------------------------------------
    const double flops = 2.0 * double(m) * double(k) * double(n);
    Matrix y_s, y_t, y_p;
    const auto gemm = bench::rounds(
        n_rounds, std::vector<std::function<double()>>{
                      timedArm(y_s, [&] { return serial.gemm(x, w); }),
                      timedArm(y_t, [&] { return threaded.gemm(x, w); }),
                      timedArm(y_p, [&] { return packed.gemm(x, w); })});
    out.set("gemm.serial_gflops",
            flops / recordTime(out, "gemm.serial_s", gemm[0]) * 1e-9);
    out.set("gemm.threaded_gflops",
            flops / recordTime(out, "gemm.threaded_s", gemm[1]) * 1e-9);
    recordRatio(out, "gemm.speedup", gemm[0], gemm[1]);
    const double max_abs_diff = maxAbsDiff(y_s, y_t);
    out.set("gemm.max_abs_diff", max_abs_diff);
    out.gate("gemm.max_abs_diff", max_abs_diff == 0.0);
    out.set("gemm_packed.packed_gflops",
            flops / recordTime(out, "gemm_packed.packed_s", gemm[2]) * 1e-9);
    recordRatio(out, "gemm_packed.speedup_vs_serial", gemm[0], gemm[2]);
    // The packed fp32 arm reassociates the reduction, so it is NMSE-gated
    // against the serial oracle instead of bit-compared.
    const double simd_nmse = nmse(y_s, y_p);
    const double simd_bound = 2e-3;
    out.set("gemm_packed.simd_gemm_nmse", simd_nmse);
    out.set("gemm_packed.simd_gemm_nmse_bound", simd_bound);
    out.gate("gemm_packed.simd_gemm_nmse",
             simd_nmse >= 0.0 && simd_nmse <= simd_bound);
    out.flag("gemm_packed.int8_bitexact", int8BitExact(serial, packed));

    // ---- Tender product on the three arms --------------------------------
    const double macs = double(m) * double(k) * double(n);
    const double chunks = double(chunkRanges(m, cfg.rowChunk).size());
    Matrix ty_s, ty_t, ty_p;
    const auto tender = bench::rounds(
        n_rounds,
        std::vector<std::function<double()>>{
            timedArm(ty_s, [&] {
                return tenderMatmul(x, w, cfg, nullptr, &serial);
            }),
            timedArm(ty_t, [&] {
                return tenderMatmul(x, w, cfg, nullptr, &threaded);
            }),
            timedArm(ty_p, [&] {
                return tenderMatmul(x, w, cfg, nullptr, &packed);
            })});
    const double tender_serial =
        recordTime(out, "tender.serial_s", tender[0]);
    const double tender_threaded =
        recordTime(out, "tender.threaded_s", tender[1]);
    recordRatio(out, "tender.speedup", tender[0], tender[1]);
    out.set("tender.serial_gmacs", macs / tender_serial * 1e-9);
    out.set("tender.threaded_gmacs", macs / tender_threaded * 1e-9);
    out.set("tender.serial_chunks_per_s", chunks / tender_serial);
    out.set("tender.threaded_chunks_per_s", chunks / tender_threaded);
    out.set("tender.fold_fallback_chunks", foldFallbackChunks(x, cfg));
    const double tender_nmse = nmse(ty_s, ty_t);
    out.set("tender.nmse_threaded_vs_serial", tender_nmse);
    out.gate("tender.nmse_threaded_vs_serial", tender_nmse == 0.0);
    out.set("tender_packed.packed_gmacs",
            macs / recordTime(out, "tender_packed.packed_s", tender[2]) *
                1e-9);
    recordRatio(out, "tender_packed.speedup_vs_serial", tender[0], tender[2]);
    const double packed_nmse = nmse(ty_s, ty_p);
    out.set("tender_packed.nmse_packed_vs_serial", packed_nmse);
    out.gate("tender_packed.nmse_packed_vs_serial", packed_nmse == 0.0);

    // ---- Prepared weights and segmented steps ----------------------------
    // Timed as the serving benchmark's w8a8_batch runs the replica: its
    // scheme (8-bit, G = 8, 32-row chunks) on a 2-worker threaded pool.
    TenderConfig serve_cfg;
    serve_cfg.rowChunk = 32;
    KernelContext serving(Backend::Threaded, 2);
    for (const char *section : {"tender_prepared", "tender_segmented"}) {
        const std::string s = section;
        out.set(s + ".backend", backendName(serving.backend()));
        out.set(s + ".workers", serving.workers());
        out.set(s + ".row_chunk", serve_cfg.rowChunk);
        out.set(s + ".bits", serve_cfg.bits);
        out.set(s + ".groups", serve_cfg.numGroups);
        out.set(s + ".rounds", micro_rounds);
    }
    // Per-call against prepared products at the OPT-6.7B /16 serving
    // replica's weight shapes (q/k/v/o 256x256, fc1 256x1024, fc2
    // 1024x256) and at K = 2048 and 4096, for one row and one row chunk.
    Rng prng(7);
    bool prepared_bitexact = true;
    int row = 0;
    for (const auto &[pk, pn] : {std::pair{256, 256}, {256, 1024},
                                 {1024, 256}, {2048, 256}, {4096, 256}}) {
        const Matrix pw = randomGaussian(pk, pn, prng, 0.f, 0.05f);
        for (const int pm : {1, serve_cfg.rowChunk}) {
            const Matrix px = randomGaussian(pm, pk, prng);
            const std::string path =
                "tender_prepared.shapes." + std::to_string(row++);
            out.set(path + ".m", pm);
            out.set(path + ".k", pk);
            out.set(path + ".n", pn);
            out.set(path + ".fold_fallback_chunks",
                    foldFallbackChunks(px, serve_cfg));
            prepared_bitexact =
                recordProducts(
                    out, path, "per_call_us", "prepared_us", pw, serve_cfg,
                    serving, {&serial, &threaded, &packed, &serving},
                    micro_rounds,
                    [&](const PreparedWeight &, const KernelContext &c) {
                        return tenderMatmul(px, pw, serve_cfg, nullptr, &c);
                    },
                    [&](const PreparedWeight &p, const KernelContext &) {
                        return p.matmul(px);
                    }) &&
                prepared_bitexact;
        }
    }
    out.flag("tender_prepared.prepared_bitexact", prepared_bitexact);

    // The per-segment loop against the segmented product of a decode step
    // (eight one-row segments) and a mixed step (a 256-row segment and
    // seven one-row ones) at the replica's weight shapes.
    Rng srng(11);
    bool segmented_bitexact = true;
    row = 0;
    for (const auto &[sk, sn] :
         {std::pair{256, 256}, {256, 1024}, {1024, 256}}) {
        const Matrix sw = randomGaussian(sk, sn, srng, 0.f, 0.05f);
        for (const bool decode : {true, false}) {
            const std::vector<int> segments = {decode ? 1 : 256, 1, 1, 1,
                                               1, 1, 1, 1};
            const int sm = decode ? 8 : 263;
            const Matrix sx = randomGaussian(sm, sk, srng);
            const std::string path =
                "tender_segmented.steps." + std::to_string(row++);
            out.set(path + ".step", decode ? "decode" : "mixed");
            out.set(path + ".segments", segments.size());
            out.set(path + ".rows", sm);
            out.set(path + ".k", sk);
            out.set(path + ".n", sn);
            segmented_bitexact =
                recordProducts(
                    out, path, "per_segment_us", "segmented_us", sw,
                    serve_cfg, serving, {&serial, &threaded, &packed},
                    micro_rounds,
                    [&](const PreparedWeight &p, const KernelContext &) {
                        return p.PreparedWeight::matmulSegments(sx,
                                                                segments);
                    },
                    [&](const PreparedWeight &p, const KernelContext &) {
                        return p.matmulSegments(sx, segments);
                    }) &&
                segmented_bitexact;
        }
    }
    out.flag("tender_segmented.segmented_bitexact", segmented_bitexact);
    return out.finish(out_path);
}
