#include "core/tender_quant.h"

#include <algorithm>

#include "quant/quantizer.h"

namespace tender {

QuantizedChunk
quantizeChunk(const Matrix &chunk, const ChunkMeta &meta, int bits)
{
    TENDER_CHECK(meta.channels() == chunk.cols());
    QuantizedChunk qc;
    qc.bits = bits;
    qc.meta = meta;
    qc.codes = IntMatrix(chunk.rows(), chunk.cols());
    // Per-channel scale resolved once; row-pointer walk avoids the
    // bounds-checked accessor in this per-chunk hot loop.
    std::vector<float> chan_scale(size_t(chunk.cols()));
    for (int c = 0; c < chunk.cols(); ++c)
        chan_scale[size_t(c)] = meta.scale[size_t(meta.group[size_t(c)])];
    for (int r = 0; r < chunk.rows(); ++r) {
        const float *row = chunk.rowPtr(r);
        int32_t *codes = qc.codes.rowPtr(r);
        for (int c = 0; c < chunk.cols(); ++c) {
            const float centered = row[c] - meta.bias[size_t(c)];
            codes[c] = quantizeValue(centered, chan_scale[size_t(c)], bits);
        }
    }
    return qc;
}

Matrix
dequantizeChunk(const QuantizedChunk &qc)
{
    Matrix out(qc.codes.rows(), qc.codes.cols());
    const int d = qc.codes.cols();
    // Same per-element arithmetic as the accessor-based loop, as a
    // row-pointer walk with no scratch allocation: the KV cache's
    // dequantize-on-read path runs it per frozen chunk, concurrently
    // across requests, so both the bounds checks and a per-call heap
    // allocation are measurable.
    const int *group = qc.meta.group.data();
    const float *scale = qc.meta.scale.data();
    const float *bias = qc.meta.bias.data();
    for (int r = 0; r < out.rows(); ++r) {
        const int32_t *codes = qc.codes.rowPtr(r);
        float *dst = out.rowPtr(r);
        for (int c = 0; c < d; ++c)
            dst[c] = dequantizeValue(codes[c], scale[group[c]]) + bias[c];
    }
    return out;
}

namespace {

/** Per-output-column weight scales. One row-major pass finds all column
 *  maxima (max is order-independent, so the scales match a per-column
 *  scan exactly); row-pointer walks keep it out of the bounds-checked
 *  accessor. */
std::vector<float>
columnScales(const Matrix &w, int bits)
{
    TENDER_REQUIRE(bits >= 2 && bits <= 16,
                   "weight codes are int16: bits must be in [2, 16], got "
                   << bits);
    std::vector<float> col_max(size_t(w.cols()), 0.f);
    for (int r = 0; r < w.rows(); ++r) {
        const float *row = w.rowPtr(r);
        for (int c = 0; c < w.cols(); ++c)
            col_max[size_t(c)] = std::max(col_max[size_t(c)],
                                          std::abs(row[c]));
    }
    std::vector<float> scales(size_t(w.cols()));
    for (int c = 0; c < w.cols(); ++c)
        scales[size_t(c)] = scaleFor(col_max[size_t(c)], bits);
    return scales;
}

} // namespace

QuantizedWeight
quantizeWeight(const Matrix &w, int bits)
{
    QuantizedWeight qw;
    qw.bits = bits;
    qw.colScale = columnScales(w, bits);
    qw.codes = MatrixT<int16_t>(w.cols(), w.rows());
    // A band of weight rows is quantized row-major into a small buffer,
    // then scattered into the columns.
    constexpr int kBand = 16;
    MatrixT<int16_t> band(kBand, w.cols());
    for (int r0 = 0; r0 < w.rows(); r0 += kBand) {
        const int rn = std::min(kBand, w.rows() - r0);
        for (int i = 0; i < rn; ++i) {
            const float *row = w.rowPtr(r0 + i);
            int16_t *codes = band.rowPtr(i);
            for (int c = 0; c < w.cols(); ++c)
                codes[c] = int16_t(
                    quantizeValue(row[c], qw.colScale[size_t(c)], bits));
        }
        for (int c = 0; c < w.cols(); ++c) {
            int16_t *codes = qw.codes.rowPtr(c) + r0;
            for (int i = 0; i < rn; ++i)
                codes[i] = band.rowPtr(i)[c];
        }
    }
    return qw;
}

Matrix
dequantizeWeight(const QuantizedWeight &qw)
{
    Matrix out(qw.codes.cols(), qw.codes.rows());
    for (int r = 0; r < out.rows(); ++r)
        for (int c = 0; c < out.cols(); ++c)
            out(r, c) = dequantizeValue(qw.codes(c, r),
                                        qw.colScale[size_t(c)]);
    return out;
}

} // namespace tender
