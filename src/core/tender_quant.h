/**
 * @file
 * Quantization of activations (per-chunk, decomposed) and weights
 * (per-column, linear symmetric) for the Tender pipeline.
 *
 * Only activations are decomposed at runtime. A weight is quantized once
 * into a QuantizedWeight (K x N codes), or into QuantizedColumns (the same
 * codes stored N x K) for the folded product, and the GEMM pipeline
 * (core/tender_gemm.h) reads its codes in place on every call: the serving
 * runtime prepares each projection once per session through
 * GemmScheme::prepare.
 */

#ifndef TENDER_CORE_TENDER_QUANT_H
#define TENDER_CORE_TENDER_QUANT_H

#include "core/decompose.h"
#include "tensor/matrix.h"

namespace tender {

/** One quantized activation chunk plus its metadata. */
struct QuantizedChunk
{
    IntMatrix codes;   ///< widened b-bit codes, original channel order
    ChunkMeta meta;
    int bits = 8;
};

/** Per-column symmetric weight quantization (done once, offline). Codes
 *  are int16, wide enough for any width up to 16 bits, so the golden and
 *  the blocked GEMM kernels both read them without a per-call copy. */
struct QuantizedWeight
{
    MatrixT<int16_t> codes;
    std::vector<float> colScale; ///< one scale per output column
    int bits = 8;
};

/** QuantizedWeight's codes and column scales with the codes stored
 *  transposed: N x K, so output column j's codes are contiguous over the
 *  K input channels (row j). The folded Tender product reads them as the
 *  right operand of an int16 dot-product GEMM. */
struct QuantizedColumns
{
    MatrixT<int16_t> codes; ///< N x K
    std::vector<float> colScale; ///< one scale per output column
    int bits = 8;
};

/**
 * Quantize a chunk with precomputed metadata. Values outside the
 * calibrated range (static calibration applied to unseen data) clamp to
 * the code range, exactly as the VPU's saturating quantizer does.
 */
QuantizedChunk quantizeChunk(const Matrix &chunk, const ChunkMeta &meta,
                             int bits);

/** Dequantize back to FP32 (adds the channel bias back). */
Matrix dequantizeChunk(const QuantizedChunk &qc);

/** Quantize weights per output column (2 <= bits <= 16). */
QuantizedWeight quantizeWeight(const Matrix &w, int bits);

/** quantizeWeight(w, bits) written straight into the N x K layout: the
 *  same codes and scales, with no K x N copy along the way. */
QuantizedColumns quantizeWeightColumns(const Matrix &w, int bits);

/** Dequantize weights. */
Matrix dequantizeWeight(const QuantizedWeight &qw);

} // namespace tender

#endif // TENDER_CORE_TENDER_QUANT_H
