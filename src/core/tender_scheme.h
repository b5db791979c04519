/**
 * @file
 * GemmScheme adapter for Tender so the accuracy harnesses can swap it in
 * next to the baseline quantization schemes.
 *
 * prepare() quantizes a weight once and picks its product form from the
 * weight's shape, once: inside the fold bound (foldedProductFits in
 * core/tender_gemm.h; every projection of the OPT-6.7B /16 serving
 * replica at 8 bits, G = 8, alpha = 2) it stores the codes N x K and runs
 * the folded int16 dot-product GEMM, else it stores them K x N and runs
 * matmul's group-walk kernels. Either form is bit-identical to
 * matmul(x, w), which, like stats requests and the explicit path, keeps
 * the group-walk kernels.
 */

#ifndef TENDER_CORE_TENDER_SCHEME_H
#define TENDER_CORE_TENDER_SCHEME_H

#include "core/tender_gemm.h"
#include "quant/granularity.h"
#include "quant/scheme.h"

namespace tender {

class TenderScheme : public GemmScheme
{
  public:
    explicit TenderScheme(TenderConfig config) : config_(config) {}

    std::string
    name() const override
    {
        return "Tender";
    }

    Matrix
    fakeQuant(const Matrix &m, Operand op) const override
    {
        if (op == Operand::Weight) {
            return dequantizeWeight(quantizeWeight(m, config_.bits));
        }
        Matrix out(m.rows(), m.cols());
        for (const auto &[r0, r1] : chunkRanges(m.rows(),
                                                config_.rowChunk)) {
            const Matrix chunk = m.rowSlice(r0, r1);
            const ChunkMeta meta = decomposeChunk(chunk, config_);
            const Matrix dq = dequantizeChunk(
                quantizeChunk(chunk, meta, config_.bits));
            for (int r = r0; r < r1; ++r)
                for (int c = 0; c < m.cols(); ++c)
                    out(r, c) = dq(r - r0, c);
        }
        return out;
    }

    /** Full integer pipeline with implicit runtime requantization,
     *  chunk-parallel over the scheme's kernel context. */
    Matrix
    matmul(const Matrix &x, const Matrix &w) const override
    {
        return tenderMatmul(x, w, config_, nullptr, &kernels());
    }

    /** Quantize `w` once (per-column scales, int16 codes); each product
     *  then runs on those codes without re-quantizing, dispatching on
     *  kernels() at call time as matmul does. */
    std::unique_ptr<PreparedWeight>
    prepare(const Matrix &w) const override
    {
        return std::make_unique<Prepared>(*this, w);
    }

    const TenderConfig &config() const { return config_; }

  private:
    class Prepared : public PreparedWeight
    {
      public:
        Prepared(const TenderScheme &scheme, const Matrix &w)
            : scheme_(scheme), w_(w),
              folded_(foldedProductFits(w.rows(), scheme.config_))
        {
            // Only the chosen layout is kept: the codes are stored once.
            if (folded_)
                cols_ = quantizeWeightColumns(w, scheme.config_.bits);
            else
                qw_ = quantizeWeight(w, scheme.config_.bits);
        }

        Matrix
        matmul(const Matrix &x) const override
        {
            const KernelContext *kc = &scheme_.kernels();
            return folded_
                ? tenderMatmul(x, cols_, w_, scheme_.config_, kc)
                : tenderMatmul(x, qw_, w_, scheme_.config_, nullptr, kc);
        }

      private:
        const TenderScheme &scheme_;
        const Matrix &w_; ///< read for the per-chunk bias correction
        bool folded_;
        QuantizedColumns cols_; ///< N x K codes (folded product)
        QuantizedWeight qw_;    ///< K x N codes (group-walk kernels)
    };

    TenderConfig config_;
};

} // namespace tender

#endif // TENDER_CORE_TENDER_SCHEME_H
