/**
 * @file
 * Row-wise functional ops of the Transformer block: softmax, LayerNorm,
 * and the activation nonlinearities. These run on the VPU in the Tender
 * architecture and stay in floating point in all schemes.
 */

#ifndef TENDER_TENSOR_FUNCTIONAL_H
#define TENDER_TENSOR_FUNCTIONAL_H

#include "tensor/matrix.h"

namespace tender {

/** Numerically stable row-wise softmax. */
Matrix softmaxRows(const Matrix &m);

/** Row-wise LayerNorm with learned gain/bias vectors (1 x cols each). */
Matrix layerNorm(const Matrix &m, const Matrix &gain, const Matrix &bias,
                 float eps = 1e-5f);

/** Elementwise ReLU. */
Matrix relu(const Matrix &m);

/** Elementwise GELU (tanh approximation, as used by OPT/LLaMA FFNs). */
Matrix gelu(const Matrix &m);

/** Elementwise scale. */
Matrix scale(const Matrix &m, float s);

/**
 * Causal mask for attention scores: entries above the diagonal get -inf
 * before softmax. Scores must be square per head (n x n).
 */
Matrix causalMask(const Matrix &scores);

/**
 * Causal mask for incremental (decode) attention: score rows are queries
 * at absolute positions pos0, pos0+1, ...; columns are keys 0..len-1, so
 * entry (r, c) is masked when c > pos0 + r. causalMaskFrom(m, 0) on a
 * square m equals causalMask(m).
 */
Matrix causalMaskFrom(const Matrix &scores, int pos0);

/** Range bodies shared by the serial functions above and the threaded
 *  backend of tensor/kernels.h (identical per-element arithmetic). */
namespace functional_detail {

void softmaxRowsRange(const Matrix &m, Matrix &out, int r0, int r1);
void layerNormRange(const Matrix &m, const Matrix &gain, const Matrix &bias,
                    float eps, Matrix &out, int r0, int r1);
/** Elementwise bodies over flat indices [i0, i1); out pre-filled with m. */
void reluRange(Matrix &out, size_t i0, size_t i1);
void geluRange(Matrix &out, size_t i0, size_t i1);
void scaleRange(Matrix &out, float s, size_t i0, size_t i1);

} // namespace functional_detail

} // namespace tender

#endif // TENDER_TENSOR_FUNCTIONAL_H
