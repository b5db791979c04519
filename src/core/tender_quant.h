/**
 * @file
 * Quantization of activations (per-chunk, decomposed) and weights
 * (per-column, linear symmetric) for the Tender pipeline.
 *
 * Only activations are decomposed at runtime. A weight is quantized once
 * into a QuantizedWeight, its codes stored N x K, and the GEMM pipeline
 * (core/tender_gemm.h) reads them in place on every call: the folded
 * product as the right operand of its int16 dot-product GEMM, the golden
 * kernels (Serial, stats requests and fallback chunks) one column slice
 * at a time. The serving runtime prepares each projection once per
 * session through GemmScheme::prepare.
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
 *  are int16, wide enough for any width up to 16 bits, and stored N x K:
 *  output column j's codes are contiguous over the K input channels
 *  (row j), so every GEMM kernel reads them without a per-call copy. */
struct QuantizedWeight
{
    MatrixT<int16_t> codes;      ///< N x K
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

/** Quantize a K x N weight per output column (2 <= bits <= 16), written
 *  straight into the N x K layout. */
QuantizedWeight quantizeWeight(const Matrix &w, int bits);

/** Dequantize weights back to the K x N layout. */
Matrix dequantizeWeight(const QuantizedWeight &qw);

} // namespace tender

#endif // TENDER_CORE_TENDER_QUANT_H
