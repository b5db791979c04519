/**
 * @file
 * Common interface for quantized-GEMM schemes.
 *
 * Every scheme approximates Y = X * W for an activation X and weight W.
 * The accuracy harnesses run transformer GEMMs through a scheme and measure
 * the output error against the FP32 reference; the default matmul() path is
 * "fake quantization" (quantize-dequantize each operand, then exact GEMM),
 * which is numerically identical to running the integer pipeline and
 * rescaling, and is the standard methodology of PTQ accuracy papers.
 *
 * Schemes that change the compute itself (Tender's runtime requantization)
 * override matmul() with their own integer pipeline.
 *
 * prepare() binds a weight for repeated products: the serving runtime
 * prepares each projection once per session, so work a scheme can do once
 * per weight (Tender's per-column weight quantization) leaves the
 * per-step path. A decode step multiplies each prepared weight once over
 * all of its requests' rows stacked (matmulSegments), and each request's
 * rows equal its own product bit for bit. The accuracy harnesses keep
 * calling matmul(x, w): they use each weight once per forward and pass
 * activations as the right operand too.
 */

#ifndef TENDER_QUANT_SCHEME_H
#define TENDER_QUANT_SCHEME_H

#include <memory>
#include <string>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"

namespace tender {

/** Which operand of a GEMM a tensor plays; some codecs treat them
 *  differently (e.g. activation-only outlier handling). */
enum class Operand { Activation, Weight };

/** A weight bound to the scheme that prepared it (GemmScheme::prepare):
 *  matmul(x) equals that scheme's matmul(x, w) bit for bit. */
class PreparedWeight
{
  public:
    PreparedWeight() = default;
    PreparedWeight(const PreparedWeight &) = delete;
    PreparedWeight &operator=(const PreparedWeight &) = delete;
    virtual ~PreparedWeight() = default;

    virtual Matrix matmul(const Matrix &x) const = 0;

    /**
     * The product of a stack of independent segments: x's rows are the
     * segments' rows back to back, segmentRows holds each segment's row
     * count (at least one segment, each of at least one row), and each
     * segment's output rows equal matmul(segment) bit for bit. The
     * default multiplies segment by segment, so a class that overrides
     * only matmul(x) (a forwarding wrapper) serves exactly as before; a
     * scheme that can share work across segments overrides this. A
     * separate name rather than a matmul overload, so overriding
     * matmul(x) hides nothing.
     */
    virtual Matrix matmulSegments(const Matrix &x,
                                  const std::vector<int> &segmentRows) const;
};

/** Abstract quantized-GEMM scheme. */
class GemmScheme
{
  public:
    virtual ~GemmScheme() = default;

    virtual std::string name() const = 0;

    /** Fake-quantize one operand (returns dequantized FP32 tensor). */
    virtual Matrix fakeQuant(const Matrix &m, Operand op) const = 0;

    /** Approximate X * W under this scheme. */
    virtual Matrix
    matmul(const Matrix &x, const Matrix &w) const
    {
        return kernels().gemm(fakeQuant(x, Operand::Activation),
                              fakeQuant(w, Operand::Weight));
    }

    /**
     * Bind weight `w` for repeated X * W products. The default forwards
     * every product to matmul(x, w), so a scheme that overrides only
     * matmul (a timing wrapper, say) serves exactly as before; schemes
     * with per-weight work override this to do it here, once. `w` and
     * this scheme must outlive the result.
     */
    virtual std::unique_ptr<PreparedWeight> prepare(const Matrix &w) const;

    /** Kernel context every matmul path dispatches through; defaults to
     *  the process-wide defaultKernels(). */
    const KernelContext &kernels() const;

    /** Pin this scheme to a specific context (nullptr restores the
     *  default). The context must outlive the scheme. */
    void setKernels(const KernelContext *kernels) { kernels_ = kernels; }

    /**
     * Channel-equalized damage this scheme inflicts on the operands of an
     * X * W GEMM: the sum of per-column-normalized NMSE on each operand
     * (see mcNmse in quant/metrics.h). Schemes whose pipeline transforms
     * the operands before quantizing (e.g. SmoothQuant's migration)
     * override this so the damage is measured on what they actually
     * quantize.
     */
    virtual double gemmDamage(const Matrix &x, const Matrix &w) const;

  private:
    const KernelContext *kernels_ = nullptr;
};

/** Exact FP reference (the "FP16 baseline" rows of the paper's tables;
 *  our master data is FP32, which only tightens the baseline). */
class Fp16Scheme : public GemmScheme
{
  public:
    std::string name() const override { return "FP16"; }
    Matrix fakeQuant(const Matrix &m, Operand) const override { return m; }
    Matrix
    matmul(const Matrix &x, const Matrix &w) const override
    {
        return kernels().gemm(x, w);
    }
};

} // namespace tender

#endif // TENDER_QUANT_SCHEME_H
