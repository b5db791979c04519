#include "quant/scheme.h"

#include "quant/metrics.h"

namespace tender {

namespace {

/** GemmScheme::prepare's default: every product is scheme.matmul(x, w). */
class ForwardedWeight : public PreparedWeight
{
  public:
    ForwardedWeight(const GemmScheme &scheme, const Matrix &w)
        : scheme_(scheme), w_(w)
    {
    }

    Matrix matmul(const Matrix &x) const override
    {
        return scheme_.matmul(x, w_);
    }

  private:
    const GemmScheme &scheme_;
    const Matrix &w_;
};

} // namespace

std::unique_ptr<PreparedWeight>
GemmScheme::prepare(const Matrix &w) const
{
    return std::make_unique<ForwardedWeight>(*this, w);
}

const KernelContext &
GemmScheme::kernels() const
{
    return kernels_ ? *kernels_ : defaultKernels();
}

double
GemmScheme::gemmDamage(const Matrix &x, const Matrix &w) const
{
    // Activations are tokens x channels (columns = channels); weights are
    // channels x features, so equal-weighting *input channels* means
    // normalizing weight rows — handled by transposing the view via
    // mcNmse on the operand orientation where columns are channels.
    const double act = mcNmse(x, fakeQuant(x, Operand::Activation));
    const Matrix wq = fakeQuant(w, Operand::Weight);
    const double wt = mcNmse(w.transposed(), wq.transposed());
    return act + wt;
}

} // namespace tender
