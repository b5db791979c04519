/**
 * @file
 * GemmScheme adapter for Tender so the accuracy harnesses can swap it in
 * next to the baseline quantization schemes.
 *
 * prepare() quantizes a weight once into its N x K codes; each product
 * then runs the same pipeline as matmul(x, w), bit for bit: on the pooled
 * backends each chunk inside the per-chunk fold bound (core/tender_gemm.h)
 * runs the folded int16 dot-product GEMM, and the Serial backend and every
 * other chunk run the golden walk. A segmented product (a decode step's
 * requests stacked) runs as one pass of that pipeline
 * (tenderMatmulSegments), chunks restarting at each segment, so each
 * segment's rows equal its own product bit for bit.
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
              qw_(quantizeWeight(w, scheme.config_.bits))
        {
        }

        Matrix
        matmul(const Matrix &x) const override
        {
            return tenderMatmul(x, qw_, w_, scheme_.config_, nullptr,
                                &scheme_.kernels());
        }

        Matrix
        matmulSegments(const Matrix &x,
                       const std::vector<int> &segmentRows) const override
        {
            return tenderMatmulSegments(x, segmentRows, qw_, w_,
                                        scheme_.config_, nullptr,
                                        &scheme_.kernels());
        }

      private:
        const TenderScheme &scheme_;
        const Matrix &w_; ///< read for the per-chunk bias correction
        QuantizedWeight qw_;
    };

    TenderConfig config_;
};

} // namespace tender

#endif // TENDER_CORE_TENDER_SCHEME_H
