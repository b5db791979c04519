/**
 * @file
 * Backend-dispatched kernel layer: every hot tensor op in one place.
 *
 * A KernelContext pairs a backend selection with (for the pooled
 * backends) a ThreadPool, and exposes the GEMM and elementwise kernels
 * the rest of the library calls. The three-arm kernel policy:
 *
 *  - Serial:   the golden single-threaded reference kernels of
 *              tensor/gemm.cc / tensor/functional.cc, unchanged — the
 *              oracle every other arm is measured against.
 *  - Threaded: the same per-element arithmetic dispatched as row-band /
 *              row-tile tasks over the pool. The task partition is fixed
 *              by the problem shape (never by worker count), so threaded
 *              results are bit-identical to serial results with any
 *              number of workers — the determinism tests assert exact
 *              equality, not a tolerance.
 *  - Packed:   the SIMD microkernels of tensor/packed_gemm over the same
 *              pool. Integer kernels (gemmInt8) remain bit-identical
 *              (integer arithmetic is exact under reassociation); the
 *              fp32 GEMMs trade bit-parity with the oracle for packed
 *              fp32-accumulating inner loops and are NMSE-gated instead
 *              (simd_gemm_nmse in BENCH_gemm.json, bound 2e-3). Packed
 *              kernels stay row-local and partition-independent, so the
 *              runtime's determinism invariants (decode == prefill,
 *              batch/order/worker independence) hold bit-exactly
 *              *within* the arm. Attention does not run on them: the
 *              fp32 attention chains (model/transformer's attention
 *              functions, the decode runtime's page kernel) compute the
 *              golden arithmetic on every arm, so on Packed only the
 *              projections and the readout use the SIMD fp32 sums.
 *              Every op without a packed microkernel dispatches the
 *              threaded body. When SIMD is disabled at runtime
 *              (TENDER_SIMD=off, util/cpu_features.h), asking for Packed
 *              yields a Threaded context — the kill switch back to full
 *              bit-parity.
 *
 * The process-wide default context is configured from the environment:
 *   TENDER_BACKEND     = serial | threaded | packed  (default threaded)
 *   TENDER_NUM_THREADS = N                   (default hardware threads)
 * Schemes (quant/scheme.h), the quantized executor (model/quant_executor),
 * the reference transformer, and the Tender chunk pipeline
 * (core/tender_gemm) all route through a KernelContext, so backend and
 * worker count are a single seam for future sharding/batching/GPU work.
 */

#ifndef TENDER_TENSOR_KERNELS_H
#define TENDER_TENSOR_KERNELS_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "tensor/functional.h"
#include "tensor/gemm.h"
#include "tensor/matrix.h"
#include "util/thread_pool.h"

namespace tender {

enum class Backend { Serial, Threaded, Packed };

std::string backendName(Backend b);

class KernelContext
{
  public:
    /** workers <= 0 selects ThreadPool::configuredWorkers(); ignored for
     *  the serial backend. Backend::Packed demotes to Backend::Threaded
     *  when SIMD is disabled at runtime (TENDER_SIMD=off) — backend()
     *  reports the arm actually in effect. */
    explicit KernelContext(Backend backend = Backend::Serial,
                           int workers = 0);
    ~KernelContext();

    KernelContext(const KernelContext &) = delete;
    KernelContext &operator=(const KernelContext &) = delete;

    Backend backend() const { return backend_; }
    int workers() const;

    /**
     * Deterministically partitioned parallel loop (see ThreadPool). The
     * serial backend runs the same partition inline, so per-range state is
     * identical across backends.
     */
    void parallelFor(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)> &fn) const;

    // -- GEMM kernels ------------------------------------------------------
    Matrix gemm(const Matrix &a, const Matrix &b) const;
    Matrix gemmTransposedB(const Matrix &a, const Matrix &b) const;
    MatrixT<int64_t> gemmInt(const IntMatrix &a, const IntMatrix &b) const;
    /** Integer panel product C = A(m x k) * B(n x k)^T on int8-range codes
     *  with int32 result — the fused quantized-KV attention kernel (see
     *  tensor/gemm.h gemmInt8; negative bounds mean "scan the operand").
     *  Exact, so ALL backends are bit-identical — including Packed, whose
     *  int16-panel microkernel merely reorders an exact integer sum. */
    IntMatrix gemmInt8(const IntMatrix &a, const IntMatrix &b,
                       int64_t abs_bound_a = -1,
                       int64_t abs_bound_b = -1) const;

    // -- Elementwise / row-wise kernels ------------------------------------
    Matrix axpby(float alpha, const Matrix &a, float beta,
                 const Matrix &b) const;
    Matrix addRowVector(const Matrix &m, const Matrix &row) const;
    /** Activations take their input by value and run in place on it, so
     *  an rvalue argument (a projection's output) is never copied. */
    Matrix relu(Matrix m) const;
    Matrix gelu(Matrix m) const;
    Matrix scale(const Matrix &m, float s) const;
    Matrix softmaxRows(const Matrix &m) const;
    Matrix layerNorm(const Matrix &m, const Matrix &gain, const Matrix &bias,
                     float eps = 1e-5f) const;

  private:
    Backend backend_;
    std::unique_ptr<ThreadPool> pool_; ///< null for the serial backend
};

/** Process-wide default context (env-configured on first use). */
KernelContext &defaultKernels();

/** Replace the default context (tests and benches). */
void setDefaultKernels(Backend backend, int workers = 0);

} // namespace tender

#endif // TENDER_TENSOR_KERNELS_H
