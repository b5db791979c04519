#include "model/transformer.h"

#include <cmath>
#include <limits>

#include "tensor/kernels.h"

namespace tender {

Matrix
headSlice(const Matrix &m, int head, int head_dim)
{
    return m.colSlice(head * head_dim, (head + 1) * head_dim);
}

int
kvHeadOf(int q_head, int n_heads, int kv_heads)
{
    TENDER_CHECK(n_heads % kv_heads == 0);
    return q_head / (n_heads / kv_heads);
}

namespace {

/**
 * softmax(q k^T / sqrt(dh)) v for `heads` query heads stacked head-major
 * in q (row r is new token r % t of its head, t = q.rows() / heads),
 * row r masked past key pos0 + r % t when `causal`. Both products run
 * tensor/gemm.cc's golden row bands over the context's partition, so
 * every arm — Packed included — computes the golden arithmetic of
 * tensor/gemm.h and the same bits.
 */
Matrix
attention(const Matrix &q, int heads, const Matrix &k, const Matrix &v,
          bool causal, int pos0, const KernelContext &kc)
{
    TENDER_CHECK(heads >= 1 && q.rows() % heads == 0);
    TENDER_CHECK(q.cols() == k.cols() && k.rows() == v.rows());
    const int tnew = q.rows() / heads;
    TENDER_CHECK(!causal || (pos0 >= 0 && pos0 + tnew <= k.rows()));
    Matrix scores(q.rows(), k.rows());
    kc.parallelFor(0, q.rows(), gemm_detail::kTransposedRowTile,
                   [&](int64_t r0, int64_t r1) {
        gemm_detail::gemmTransposedBRows(q, k, scores, int(r0), int(r1));
    });
    const float inv_sqrt = 1.f / std::sqrt(float(q.cols()));
    const float neg_inf = -std::numeric_limits<float>::infinity();
    for (int r = 0; r < scores.rows(); ++r) {
        float *row = scores.rowPtr(r);
        for (int c = 0; c < scores.cols(); ++c)
            row[c] *= inv_sqrt;
        if (causal)
            for (int c = pos0 + r % tnew + 1; c < scores.cols(); ++c)
                row[c] = neg_inf;
    }
    const Matrix probs = kc.softmaxRows(scores);
    Matrix out(q.rows(), v.cols());
    kc.parallelFor(0, q.rows(), gemm_detail::kGemmRowBlock,
                   [&](int64_t r0, int64_t r1) {
        gemm_detail::gemmRowBand(probs, v, out, int(r0), int(r1));
    });
    return out;
}

} // namespace

Matrix
attentionHead(const Matrix &q, const Matrix &k, const Matrix &v, bool causal,
              const KernelContext *kernels)
{
    return attention(q, 1, k, v, causal, 0,
                     kernels ? *kernels : defaultKernels());
}

Matrix
attentionHeadIncremental(const Matrix &q, const Matrix &k, const Matrix &v,
                         int pos0, const KernelContext *kernels)
{
    return attention(q, 1, k, v, true, pos0,
                     kernels ? *kernels : defaultKernels());
}

Matrix
attentionPanelIncremental(const Matrix &q, int heads, const Matrix &k,
                          const Matrix &v, int pos0,
                          const KernelContext *kernels)
{
    return attention(q, heads, k, v, true, pos0,
                     kernels ? *kernels : defaultKernels());
}

Matrix
blockForward(const Matrix &x, const BlockWeights &w,
             const ModelConfig &config, const KernelContext *kernels)
{
    const KernelContext &kc = kernels ? *kernels : defaultKernels();
    const int dh = config.headDim();
    const Matrix ln1 = kc.layerNorm(x, w.ln1Gain, w.ln1Bias);
    const Matrix xq = kc.gemm(ln1, w.wq);
    const Matrix xk = kc.gemm(ln1, w.wk);
    const Matrix xv = kc.gemm(ln1, w.wv);

    Matrix attn(x.rows(), config.dModel);
    for (int h = 0; h < config.nHeads; ++h) {
        const int kvh = kvHeadOf(h, config.nHeads, config.kvHeads);
        const Matrix out = attentionHead(headSlice(xq, h, dh),
                                         headSlice(xk, kvh, dh),
                                         headSlice(xv, kvh, dh),
                                         config.decoder, &kc);
        for (int r = 0; r < out.rows(); ++r)
            for (int c = 0; c < dh; ++c)
                attn(r, h * dh + c) = out(r, c);
    }

    const Matrix xo = kc.axpby(1.f, kc.gemm(attn, w.wo), 1.f, x);
    const Matrix ln2 = kc.layerNorm(xo, w.ln2Gain, w.ln2Bias);
    const Matrix hidden = config.family == Family::Bert
        ? kc.gelu(kc.gemm(ln2, w.wfc1))
        : kc.relu(kc.gemm(ln2, w.wfc1));
    return kc.axpby(1.f, kc.gemm(hidden, w.wfc2), 1.f, xo);
}

Matrix
modelForward(SyntheticModel &model, const Matrix &input,
             const KernelContext *kernels)
{
    Matrix x = input;
    for (int l = 0; l < model.config().nLayers; ++l)
        x = blockForward(x, model.blockWeights(l), model.config(), kernels);
    return x;
}

} // namespace tender
