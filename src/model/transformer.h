/**
 * @file
 * FP32 reference forward pass of a Transformer block (Section II-A):
 *
 *   X_Q = LN1(X) W_Q;  X_K = LN1(X) W_K;  X_V = LN1(X) W_V
 *   X_S = softmax(X_Q X_K^T / sqrt(d_h))           (per head, causal)
 *   X_O = (X_S X_V) W_O + X
 *   X_T = act(LN2(X_O) W_FC1) W_FC2 + X_O
 *
 * This is the substrate every accuracy experiment runs on; the quantized
 * execution path lives in model/quant_executor and reuses these helpers so
 * the two streams are structurally identical.
 */

#ifndef TENDER_MODEL_TRANSFORMER_H
#define TENDER_MODEL_TRANSFORMER_H

#include "model/synthetic.h"
#include "tensor/functional.h"
#include "tensor/gemm.h"
#include "tensor/kernels.h"

namespace tender {

/** Slice head h (columns [h*dh, (h+1)*dh)) out of a projection. */
Matrix headSlice(const Matrix &m, int head, int head_dim);

/** Map a query head to its KV head under grouped-query attention. */
int kvHeadOf(int q_head, int n_heads, int kv_heads);

/** Exact attention for one head (scaled scores, optional causal mask).
 *  The attention functions below compute the golden fp32 arithmetic of
 *  tensor/gemm.h on every arm, Packed included, partitioned over
 *  kernels == nullptr ? defaultKernels() : *kernels. */
Matrix attentionHead(const Matrix &q, const Matrix &k, const Matrix &v,
                     bool causal, const KernelContext *kernels = nullptr);

/**
 * Incremental (decode) attention for one head: `q` holds the new queries
 * at absolute positions pos0, pos0+1, ...; `k`/`v` hold the full key/value
 * history including the new rows (e.g. materialized from a runtime
 * KVCache). Query r attends keys 0..pos0+r. With pos0 = 0 and a history
 * equal to the query rows this is bit-identical to the causal
 * attentionHead. The decode runtime's fp32 page kernel
 * (attentionFp32Panel) must equal it bit for bit, which is what makes
 * fp32-KV decode reproduce prefill exactly (tests/test_runtime.cc).
 */
Matrix attentionHeadIncremental(const Matrix &q, const Matrix &k,
                                const Matrix &v, int pos0,
                                const KernelContext *kernels = nullptr);

/**
 * attentionHeadIncremental for `heads` query heads sharing one kv
 * history, stacked head-major: rows [h*t, (h+1)*t) (t = q.rows() /
 * heads) are head h's queries at positions pos0 .. pos0+t-1. Every step
 * is row-local, so each panel row equals a heads = 1 call on its head
 * alone bit for bit. The decode runtime's dequantize path runs it over
 * the materialized history.
 */
Matrix attentionPanelIncremental(const Matrix &q, int heads, const Matrix &k,
                                 const Matrix &v, int pos0,
                                 const KernelContext *kernels = nullptr);

/** Full exact forward of one block. The kernel context is the arm the
 *  whole chain (GEMMs, norms, softmax) dispatches on — pass the same
 *  context a runtime under test uses so reference and runtime run
 *  identical kernels (nullptr = defaultKernels()). */
Matrix blockForward(const Matrix &x, const BlockWeights &w,
                    const ModelConfig &config,
                    const KernelContext *kernels = nullptr);

/** Exact forward through all blocks of the model (kernels as above). */
Matrix modelForward(SyntheticModel &model, const Matrix &input,
                    const KernelContext *kernels = nullptr);

} // namespace tender

#endif // TENDER_MODEL_TRANSFORMER_H
