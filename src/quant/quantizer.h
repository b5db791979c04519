/**
 * @file
 * Primitive uniform symmetric quantization (Section II-C of the paper).
 *
 *   s = xmax / (2^(b-1) - 1);   xq = clamp(round(xf / s), -k, k)
 *
 * All higher-level schemes (granularity variants, SmoothQuant, Tender, ...)
 * are built from these primitives. Codes are stored widened in int32
 * (Tender's weight codes in int16, core/tender_quant.h); the memory models
 * account for the true packed widths.
 */

#ifndef TENDER_QUANT_QUANTIZER_H
#define TENDER_QUANT_QUANTIZER_H

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/matrix.h"

namespace tender {

/** Largest positive code for a symmetric b-bit integer: 2^(b-1) - 1. */
constexpr int32_t
maxCode(int bits)
{
    return (int32_t{1} << (bits - 1)) - 1;
}

/** Scale factor mapping absmax onto the largest code. */
float scaleFor(float abs_max, int bits);

/** Quantize one value: clamp x / scale to [-k, k], then round to
 *  nearest even. The clamp runs in float, before the conversion, so every
 *  float converts in range: +-inf go to +-k and NaN to -k (std::max
 *  returns its first argument when the comparison is unordered). Inline,
 *  so the per-element loops of the chunk and weight quantizers
 *  vectorize. */
inline int32_t
quantizeValue(float x, float scale, int bits)
{
    const float k = float(maxCode(bits));
    const float t = std::min(std::max(-k, x / scale), k);
    return int32_t(std::nearbyintf(t));
}

/** Dequantize one code. */
inline float
dequantizeValue(int32_t q, float scale)
{
    return float(q) * scale;
}

/** Absolute maximum over the whole matrix. */
float tensorAbsMax(const Matrix &m);

/** Absolute maximum of row r. */
float rowAbsMax(const Matrix &m, int r);

/** Absolute maximum of column c. */
float colAbsMax(const Matrix &m, int c);

/**
 * Fake-quantize the whole matrix with one scale (per-tensor): the result is
 * dequantize(quantize(x)) and carries the full quantization error of the
 * integer pipeline while staying in FP32 for downstream reference GEMMs.
 */
Matrix fakeQuantPerTensor(const Matrix &m, int bits);

} // namespace tender

#endif // TENDER_QUANT_QUANTIZER_H
