#include "quant/scheme.h"

#include <algorithm>

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

Matrix
PreparedWeight::matmulSegments(const Matrix &x,
                               const std::vector<int> &segmentRows) const
{
    TENDER_REQUIRE(!segmentRows.empty(), "a segmented product needs a "
                   "segment");
    Matrix y;
    int row0 = 0;
    for (int rows : segmentRows) {
        TENDER_REQUIRE(rows > 0, "a segment needs rows, got " << rows);
        const Matrix ys = matmul(x.rowSlice(row0, row0 + rows));
        if (row0 == 0)
            y = Matrix(x.rows(), ys.cols());
        for (int r = 0; r < rows; ++r)
            std::copy(ys.rowPtr(r), ys.rowPtr(r) + ys.cols(),
                      y.rowPtr(row0 + r));
        row0 += rows;
    }
    TENDER_REQUIRE(row0 == x.rows(), "segments cover " << row0 << " of "
                                     << x.rows() << " rows");
    return y;
}

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
