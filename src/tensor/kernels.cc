#include "tensor/kernels.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>

#include "tensor/packed_gemm.h"
#include "util/cpu_features.h"

namespace tender {

namespace {

/** Flat-element grain: small enough to balance, large enough that task
 *  dispatch cost disappears against the per-element work. */
constexpr int64_t kElemGrain = 1 << 14;

Backend
backendFromEnv()
{
    const char *env = std::getenv("TENDER_BACKEND");
    if (!env)
        return Backend::Threaded;
    const std::string v(env);
    if (v == "serial")
        return Backend::Serial;
    if (v == "threaded")
        return Backend::Threaded;
    if (v == "packed")
        return Backend::Packed;
    TENDER_FATAL("TENDER_BACKEND must be 'serial', 'threaded' or "
                 "'packed', got '" << v << "'");
}

/** |value| bound of an int matrix: the caller-known bound when given,
 *  else one scan (mirrors gemmInt8NarrowOk's resolution, but the packed
 *  dispatch also needs the values to pick the int16-panel kernel). */
int64_t
resolveAbsBound(const IntMatrix &m, int64_t bound)
{
    if (bound >= 0)
        return bound;
    int64_t mx = 0;
    for (int32_t v : m.data())
        mx = std::max(mx, std::abs(int64_t(v)));
    return mx;
}

std::mutex g_default_mu;
std::unique_ptr<KernelContext> g_default;

} // namespace

std::string
backendName(Backend b)
{
    switch (b) {
      case Backend::Serial: return "serial";
      case Backend::Threaded: return "threaded";
      case Backend::Packed: return "packed";
    }
    TENDER_PANIC("unknown backend");
}

KernelContext::KernelContext(Backend backend, int workers)
    : backend_(backend)
{
    // TENDER_SIMD=off is the runtime kill switch for the NMSE-gated arm:
    // every Packed request falls back to the bit-parity Threaded backend
    // machine-wide (util/cpu_features.h). backend() reports the demotion
    // so benches record the arm that actually ran.
    if (backend_ == Backend::Packed && !simdEnabled())
        backend_ = Backend::Threaded;
    if (backend_ != Backend::Serial)
        pool_.reset(new ThreadPool(workers));
}

KernelContext::~KernelContext() = default;

int
KernelContext::workers() const
{
    return pool_ ? pool_->workers() : 1;
}

void
KernelContext::parallelFor(int64_t begin, int64_t end, int64_t grain,
                           const std::function<void(int64_t, int64_t)> &fn)
    const
{
    if (pool_) {
        pool_->parallelFor(begin, end, grain, fn);
        return;
    }
    const int64_t n = end - begin;
    if (n <= 0)
        return;
    grain = ThreadPool::resolveGrain(n, grain);
    const int64_t tasks = (n + grain - 1) / grain;
    for (int64_t t = 0; t < tasks; ++t)
        fn(begin + t * grain, std::min(begin + (t + 1) * grain, end));
}

Matrix
KernelContext::gemm(const Matrix &a, const Matrix &b) const
{
    if (backend_ == Backend::Serial)
        return tender::gemm(a, b);
    TENDER_CHECK_MSG(a.cols() == b.rows(),
                     "gemm shape mismatch: " << a.rows() << "x" << a.cols()
                     << " * " << b.rows() << "x" << b.cols());
    if (backend_ == Backend::Packed) {
        // Pack B once, then fan row tiles of the packed microkernel out
        // over the pool (row-local, so any partition is bit-identical).
        const packed_detail::PackedB bp = packed_detail::packB(b);
        Matrix c(a.rows(), b.cols(), 0.f);
        constexpr int kMr = packed_detail::kMr;
        const int64_t tiles = (a.rows() + kMr - 1) / kMr;
        pool_->parallelFor(0, tiles, 16, [&](int64_t t0, int64_t t1) {
            packed_detail::packedGemmRows(a, bp, c, int(t0) * kMr,
                                          std::min(int(t1) * kMr,
                                                   a.rows()));
        });
        return c;
    }
    constexpr int kBlock = gemm_detail::kGemmRowBlock;
    Matrix c(a.rows(), b.cols(), 0.f);
    const int64_t tiles = (a.rows() + kBlock - 1) / kBlock;
    pool_->parallelFor(0, tiles, 1, [&](int64_t t0, int64_t t1) {
        gemm_detail::gemmRowBand(a, b, c, int(t0) * kBlock,
                                 std::min(int(t1) * kBlock, a.rows()));
    });
    return c;
}

Matrix
KernelContext::gemmTransposedB(const Matrix &a, const Matrix &b) const
{
    if (backend_ == Backend::Serial)
        return tender::gemmTransposedB(a, b);
    TENDER_CHECK_MSG(a.cols() == b.cols(),
                     "gemmTransposedB shape mismatch: " << a.rows() << "x"
                     << a.cols() << " * (" << b.rows() << "x" << b.cols()
                     << ")^T");
    Matrix c(a.rows(), b.rows(), 0.f);
    if (backend_ == Backend::Packed) {
        pool_->parallelFor(0, a.rows(), 1, [&](int64_t r0, int64_t r1) {
            packed_detail::packedGemmTransposedBRows(a, b, c, int(r0),
                                                     int(r1));
        });
        return c;
    }
    pool_->parallelFor(0, a.rows(), gemm_detail::kTransposedRowTile,
                       [&](int64_t r0, int64_t r1) {
        gemm_detail::gemmTransposedBRows(a, b, c, int(r0), int(r1));
    });
    return c;
}

MatrixT<int64_t>
KernelContext::gemmInt(const IntMatrix &a, const IntMatrix &b) const
{
    if (backend_ == Backend::Serial)
        return tender::gemmInt(a, b);
    TENDER_CHECK(a.cols() == b.rows());
    MatrixT<int64_t> c(a.rows(), b.cols(), 0);
    pool_->parallelFor(0, a.rows(), 1, [&](int64_t r0, int64_t r1) {
        gemm_detail::gemmIntRows(a, b, c, int(r0), int(r1));
    });
    return c;
}

IntMatrix
KernelContext::gemmInt8(const IntMatrix &a, const IntMatrix &b,
                        int64_t abs_bound_a, int64_t abs_bound_b) const
{
    if (backend_ == Backend::Serial)
        return tender::gemmInt8(a, b, abs_bound_a, abs_bound_b);
    TENDER_CHECK_MSG(a.cols() == b.cols(),
                     "gemmInt8 shape mismatch: " << a.rows() << "x"
                     << a.cols() << " * (" << b.rows() << "x" << b.cols()
                     << ")^T");
    // The eligibility verdict is computed once; row bands share it so
    // every band uses the same accumulator width as the serial kernel.
    if (backend_ == Backend::Packed) {
        // Integer sums are exact under any order, so all three packed
        // bodies below return the golden kernel's bits; the split is
        // perf-only. int16 panels need the bound values, so resolve the
        // caller bounds (the attention hot path passes both — no rescan
        // of immutable chunk pages).
        const int64_t ma = resolveAbsBound(a, abs_bound_a);
        const int64_t mb = resolveAbsBound(b, abs_bound_b);
        const bool narrow = gemm_detail::gemmInt8NarrowOk(a, b, ma, mb);
        IntMatrix c(a.rows(), b.rows());
        if (narrow &&
            mb <= int64_t(std::numeric_limits<int16_t>::max()) &&
            a.rows() >= packed_detail::kInt8PackMinRows) {
            const packed_detail::PackedInt16B bp =
                packed_detail::packBInt16(b);
            pool_->parallelFor(0, a.rows(), 1,
                               [&](int64_t r0, int64_t r1) {
                packed_detail::packedGemmInt8PackedRows(a, bp, c, int(r0),
                                                        int(r1));
            });
        } else {
            pool_->parallelFor(0, a.rows(), 1,
                               [&](int64_t r0, int64_t r1) {
                packed_detail::packedGemmInt8DirectRows(a, b, c, narrow,
                                                        int(r0), int(r1));
            });
        }
        return c;
    }
    const bool narrow =
        gemm_detail::gemmInt8NarrowOk(a, b, abs_bound_a, abs_bound_b);
    IntMatrix c(a.rows(), b.rows());
    pool_->parallelFor(0, a.rows(), 1, [&](int64_t r0, int64_t r1) {
        gemm_detail::gemmInt8PanelRows(a, b, c, narrow, int(r0), int(r1));
    });
    return c;
}

Matrix
KernelContext::axpby(float alpha, const Matrix &a, float beta,
                     const Matrix &b) const
{
    if (backend_ == Backend::Serial)
        return tender::axpby(alpha, a, beta, b);
    TENDER_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
    Matrix out(a.rows(), a.cols());
    pool_->parallelFor(0, int64_t(a.size()), kElemGrain,
                       [&](int64_t i0, int64_t i1) {
        gemm_detail::axpbyRange(alpha, a, beta, b, out, size_t(i0),
                                size_t(i1));
    });
    return out;
}

Matrix
KernelContext::addRowVector(const Matrix &m, const Matrix &row) const
{
    if (backend_ == Backend::Serial)
        return tender::addRowVector(m, row);
    TENDER_CHECK(row.rows() == 1 && row.cols() == m.cols());
    Matrix out = m;
    pool_->parallelFor(0, m.rows(), 1, [&](int64_t r0, int64_t r1) {
        gemm_detail::addRowVectorRows(row, out, int(r0), int(r1));
    });
    return out;
}

Matrix
KernelContext::relu(Matrix m) const
{
    if (backend_ == Backend::Serial) {
        functional_detail::reluRange(m, 0, m.size());
        return m;
    }
    pool_->parallelFor(0, int64_t(m.size()), kElemGrain,
                       [&](int64_t i0, int64_t i1) {
        functional_detail::reluRange(m, size_t(i0), size_t(i1));
    });
    return m;
}

Matrix
KernelContext::gelu(Matrix m) const
{
    if (backend_ == Backend::Serial) {
        functional_detail::geluRange(m, 0, m.size());
        return m;
    }
    pool_->parallelFor(0, int64_t(m.size()), kElemGrain,
                       [&](int64_t i0, int64_t i1) {
        functional_detail::geluRange(m, size_t(i0), size_t(i1));
    });
    return m;
}

Matrix
KernelContext::scale(const Matrix &m, float s) const
{
    if (backend_ == Backend::Serial)
        return tender::scale(m, s);
    Matrix out = m;
    pool_->parallelFor(0, int64_t(m.size()), kElemGrain,
                       [&](int64_t i0, int64_t i1) {
        functional_detail::scaleRange(out, s, size_t(i0), size_t(i1));
    });
    return out;
}

Matrix
KernelContext::softmaxRows(const Matrix &m) const
{
    if (backend_ == Backend::Serial)
        return tender::softmaxRows(m);
    Matrix out(m.rows(), m.cols());
    pool_->parallelFor(0, m.rows(), 1, [&](int64_t r0, int64_t r1) {
        functional_detail::softmaxRowsRange(m, out, int(r0), int(r1));
    });
    return out;
}

Matrix
KernelContext::layerNorm(const Matrix &m, const Matrix &gain,
                         const Matrix &bias, float eps) const
{
    if (backend_ == Backend::Serial)
        return tender::layerNorm(m, gain, bias, eps);
    TENDER_CHECK(gain.rows() == 1 && gain.cols() == m.cols());
    TENDER_CHECK(bias.rows() == 1 && bias.cols() == m.cols());
    Matrix out(m.rows(), m.cols());
    pool_->parallelFor(0, m.rows(), 1, [&](int64_t r0, int64_t r1) {
        functional_detail::layerNormRange(m, gain, bias, eps, out, int(r0),
                                          int(r1));
    });
    return out;
}

KernelContext &
defaultKernels()
{
    std::lock_guard<std::mutex> lk(g_default_mu);
    if (!g_default)
        g_default.reset(new KernelContext(backendFromEnv(), 0));
    return *g_default;
}

void
setDefaultKernels(Backend backend, int workers)
{
    std::lock_guard<std::mutex> lk(g_default_mu);
    g_default.reset(new KernelContext(backend, workers));
}

} // namespace tender
