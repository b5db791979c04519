/**
 * @file
 * Token-by-token decode execution of a SyntheticModel against a KVCache.
 *
 * The core is decodeStep(): one prefill-or-decode iteration over a batch
 * of *segments* — disjoint row ranges of a stacked input matrix, each
 * belonging to one request's cache. Fp32 QKV/O/FFN projections run as
 * single GEMMs over the stacked rows (they are row-local, so batching
 * changes nothing numerically), K/V rows are appended to each segment's
 * cache, and attention runs per (band, kv-head) over the thread pool
 * with disjoint output writes, so results are bit-identical for any
 * worker count. A band is a segment's rows that read one history: an
 * fp32 segment is one band, a quantized one splits at KV row-chunk
 * boundaries, because a query reads its own chunk in fp32 and earlier
 * chunks as frozen codes (the quantized-KV contract of kv_cache.h).
 * Every arm reads the cache pages in place, in logical-row order, so
 * paging never perturbs the numerics: an fp32 cache through a KVPageView
 * into attentionFp32Panel, and, with DecodeOptions::fusedQuantKv, a
 * quantized one through a KVCodeView into attentionFusedQuantPanel — the
 * MSA-style dataflow the paper hardware implements for its GEMMs,
 * applied to the decode attention ops. Only the dequantize path (a
 * quantized cache without fusedQuantKv, the fused path's oracle)
 * materializes the history and runs attentionPanelIncremental on it.
 *
 * DecodeEngine wraps one cache (one request): prefill() consumes the
 * prompt in a single step, step() extends it. With an Fp32 cache the
 * hidden states are bit-identical to modelForward over the concatenated
 * input; with a TenderQuantized cache they carry exactly the cache's
 * storage error, and any split of the sequence into prefill and steps
 * yields the same bits as one prefill.
 *
 * An optional GemmScheme runs the six weight GEMMs instead (the executor's
 * "quantized stream"), so Tender itself serves the projections. The
 * weights are prepared once, when a DecodeEngine or BatchScheduler is
 * built (GemmScheme::prepare: TenderScheme quantizes each weight there),
 * into a per-layer PreparedProjections table that every step multiplies
 * against; only the activations are quantized per step. Each projection
 * is one segmented product over the stacked rows
 * (PreparedWeight::matmulSegments): a quantizing scheme's activation
 * chunk scales are not row-local, so chunks restart at every segment
 * boundary and each segment's rows equal its own product bit for bit.
 *
 * Vocab closes the generation loop without a learned LM head: a
 * deterministic synthetic embedding table maps token ids to input rows
 * and hidden states to a logits row over an untied readout — greedy
 * argmax or the serving layer's sampler picks the next token from it.
 */

#ifndef TENDER_RUNTIME_DECODE_ENGINE_H
#define TENDER_RUNTIME_DECODE_ENGINE_H

#include <memory>
#include <vector>

#include "model/transformer.h"
#include "quant/scheme.h"
#include "runtime/kv_cache.h"

namespace tender {

/** One request's slice of a stacked decode-step input. */
struct DecodeSegment
{
    KVCache *cache = nullptr;
    int row0 = 0; ///< first row of this segment in the stacked input
    int rows = 0; ///< new tokens this step (prompt length at admission)
    int pos0 = 0; ///< absolute position of the first new token
};

/**
 * Wall-clock phase breakdown accumulated across decodeStep calls, so perf
 * regressions are attributable to a phase instead of a blended tokens/s
 * number. Timed on the calling thread around each phase's (possibly
 * parallel) fan-out; attach one accumulator to at most one concurrently
 * running engine/scheduler at a time.
 */
struct DecodePhaseTimes
{
    double projectionsUs = 0.0; ///< QKV/O/FFN GEMMs + norms/activations
    double appendUs = 0.0;      ///< K/V appends incl. chunk freezes
    double historyUs = 0.0;     ///< view building / dequantize-path copies
    double attentionUs = 0.0;   ///< per-(band, head) attention + trim
    int64_t steps = 0;          ///< decodeStep calls accumulated
};

/** Decode execution options. */
struct DecodeOptions
{
    KVCacheConfig cache;
    /** Block pool the engine's cache pages into (shared across engines for
     *  pooled serving); nullptr = a private unbounded pool. Must match
     *  blockPoolConfigFor(model, cache, ...) geometry and outlive the
     *  engine. */
    BlockAllocator *pool = nullptr;
    /** When set, the weight GEMMs (q/k/v/o/fc1/fc2) run through the
     *  scheme — the quantized per-op path — instead of the fp32 kernel:
     *  each weight is prepared once (scheme->prepare) when the engine or
     *  scheduler is built, bit-identical to scheme->matmul per step. The
     *  scheme dispatches on its own KernelContext (GemmScheme::kernels());
     *  pin both contexts when a run must be single-backend end to end.
     *  Must outlive the engine. */
    const GemmScheme *scheme = nullptr;
    /** Kernel context for everything else; nullptr = defaultKernels().
     *  Must outlive the engine. */
    const KernelContext *kernels = nullptr;
    /** Route TenderQuantized-cache attention through the fused
     *  integer-domain path (attentionHeadFusedQuant): scores and probs*V
     *  consume the KV chunk codes in place, with no fp32 materialization
     *  of the history. Fp32-cache segments are unaffected (they always
     *  read their pages in place through attentionFp32Panel). The
     *  dequantize-on-read path remains the reference oracle; fused output
     *  error vs that oracle is bounded and recorded in BENCH_decode.json
     *  (fused_attention_nmse). */
    bool fusedQuantKv = false;
    /** Batch the query heads sharing one kv head into a single multi-query
     *  attention panel per (segment, kv-head) — one stacked score GEMM /
     *  gemmInt8 panel per frozen chunk instead of one per query head, the
     *  GQA amortization this runtime exists to measure. Every kernel in
     *  the panel chain is row-local, so panel results are bit-identical to
     *  the per-head fan-out on every backend (mq_panel_bitexact in
     *  BENCH_decode.json); the switch exists for that A/B, not as a
     *  numerics knob. */
    bool mqAttentionPanels = true;
    /** Optional phase-timing accumulator (see DecodePhaseTimes). */
    DecodePhaseTimes *phases = nullptr;
};

/** One block's six weight projections, prepared by a GemmScheme. */
struct PreparedProjections
{
    std::unique_ptr<PreparedWeight> wq, wk, wv, wo, wfc1, wfc2;
};

/** Prepare every block's projections under `scheme`, one entry per layer
 *  (empty when scheme is null). The model and the scheme must outlive
 *  the table. */
std::vector<PreparedProjections> prepareProjections(SyntheticModel &model,
                                                    const GemmScheme *scheme);

/**
 * One transformer block over a stacked step input. Segments must tile
 * x's rows exactly; each segment's cache gets its layer-`layer` K/V rows
 * appended before attention reads them back. `projections` is the
 * prepareProjections table of options.scheme, empty for fp32 projections;
 * the cache and pool of `options` are unused (the segments carry their
 * caches).
 */
Matrix decodeBlockForward(const Matrix &x, int layer, const BlockWeights &w,
                          const ModelConfig &config,
                          const std::vector<DecodeSegment> &segments,
                          const DecodeOptions &options,
                          const std::vector<PreparedProjections> &projections,
                          const KernelContext &kc);

/** All blocks of the model over one stacked step input. */
Matrix decodeStep(SyntheticModel &model, const Matrix &x,
                  const std::vector<DecodeSegment> &segments,
                  const DecodeOptions &options,
                  const std::vector<PreparedProjections> &projections,
                  const KernelContext &kc);

/**
 * Fp32-KV attention for a multi-query panel, reading the cache pages in
 * place: the counterpart of attentionPanelIncremental over a KVPageView
 * instead of a materialized history. `q` stacks `heads` query heads
 * head-major as in attentionFusedQuantPanel (rows [h*t, (h+1)*t) are
 * head h's new tokens at positions pos0 .. pos0+t-1, t = q.rows() /
 * heads), and `kv` is the history as the band's last position reads it.
 *
 * Same bits as attentionPanelIncremental over keys()/values() on every
 * arm (tests/test_runtime.cc): scores come from register tiles of
 * independent sums vectorized across the keys of a channel-major K page,
 * each the golden double dot of tensor/gemm.h in ascending channel, then
 * the float scale; softmax replays softmaxRows' arithmetic; probs * V
 * keeps its double accumulators in registers across the V rows. Softmax
 * and probs * V visit only each row's unmasked keys. For finite values
 * that drops only +0.0 probabilities, whose ±0.0 terms cannot change a
 * sum that starts at +0.0, so a row never reads a K or V row past its
 * own position — not even a NaN one — and decode equals prefill by
 * construction. Single-threaded: the decode engine fans panels out.
 */
Matrix attentionFp32Panel(const Matrix &q, int heads, const KVPageView &kv,
                          int pos0);

/**
 * Fused quantized-KV attention for a multi-query panel: the
 * integer-domain counterpart of attentionHeadIncremental, consuming
 * KVCodeView chunk codes in place (no fp32 materialization of the
 * history), for `heads` query heads that share this kv head's history.
 *
 * `q` stacks the heads head-major: rows [h*t, (h+1)*t) (t = q.rows() /
 * heads) are head h's new-token queries at absolute positions pos0 ..
 * pos0+t-1, all inside one row chunk: `keys`/`values` are the history
 * as those queries read it (KVCache::keyView at the band's last
 * position), so their rows end at pos0+t. The query rows are quantized
 * once (per-row symmetric, the chunks' code width); each frozen key chunk
 * is processed as ONE gemmInt8 panel over all heads*t rows with the
 * cross-group alpha-rescale folded into the query codes — integer
 * exactness makes the shifted-code dot product identical to the MSA
 * shift-accumulate discipline of core/msa_functional, and the per-chunk
 * fold/scale work is paid once per kv head instead of once per query
 * head — and the int32 partial scores are requantized across chunks
 * through each chunk's scale table (score = acc * qscale * s_last +
 * q·bias). The queries' own chunk (the view's fp32 `open` rows) and the
 * softmax run in fp32 (the causal limit of panel row r is that of new
 * token r % t), then probs*V walks the V chunk codes chunk-outermost with
 * the per-chunk dequantization folded into the double accumulate.
 *
 * Every step is row-local, so each panel row is bit-identical to a
 * heads=1 call on that head alone — attentionHeadFusedQuant IS this
 * function at heads=1, and the per-element arithmetic replays the
 * dequantize oracle's: when every cached value lands exactly on a
 * power-of-two-scale code grid the fused result is bit-identical to the
 * dequantize path (asserted in tests/test_fused_attention.cc); in general
 * it differs only by the query quantization error.
 */
Matrix attentionFusedQuantPanel(const Matrix &q, int heads,
                                const KVCodeView &keys,
                                const KVCodeView &values, int pos0,
                                const KernelContext &kc);

/** Fused quantized-KV attention for one head: attentionFusedQuantPanel at
 *  heads = 1 (see above for the full numerics contract). */
Matrix attentionHeadFusedQuant(const Matrix &q, const KVCodeView &keys,
                               const KVCodeView &values, int pos0,
                               const KernelContext &kc);

/** Single-request decode runtime. */
class DecodeEngine
{
  public:
    explicit DecodeEngine(SyntheticModel &model,
                          const DecodeOptions &options = {});

    /** Consume the prompt (t x dModel) in one batched step; returns the
     *  t hidden rows. Callable once, before any step(). */
    Matrix prefill(const Matrix &prompt);

    /** Extend the sequence by t new embedding rows; returns t hidden
     *  rows. */
    Matrix step(const Matrix &x_new);

    /** Tokens processed so far. */
    int position() const { return cache_.length(); }

    const KVCache &cache() const { return cache_; }

  private:
    SyntheticModel &model_;
    DecodeOptions options_;
    KVCache cache_;
    std::vector<PreparedProjections> projections_;
};

/**
 * Deterministic synthetic vocabulary for closed-loop generation: embed()
 * turns a token id into an input row, logits() projects a hidden row onto
 * an *untied* readout matrix and returns the full logits row — the seam
 * every decoder hangs off of: greedy decode is argmaxToken() (argmax on
 * top, ties toward the lowest id so generation is reproducible across
 * backends by the kernel layer's bit-determinism), and the serving
 * layer's temperature/top-k/top-p sampler (serve/sampler.h) consumes the
 * same row. The readout is untied from the embedding on purpose: the
 * residual stream preserves the input embedding, so a tied readout
 * degenerates to echoing the previous token, whereas the untied head
 * yields history-dependent trajectories that actually exercise the KV
 * cache.
 */
class Vocab
{
  public:
    Vocab(int vocab_size, int d_model, uint64_t seed);

    int size() const { return embedding_.rows(); }

    /** 1 x dModel input row for a token id. */
    Matrix embed(int token) const;

    /** Embedding rows for a token sequence (prompt construction). */
    Matrix embedAll(const std::vector<int> &tokens) const;

    /** 1 x vocab logits of row `row` of a hidden-state matrix against the
     *  untied readout head. */
    Matrix logits(const Matrix &hidden, int row,
                  const KernelContext &kc) const;

    /** Logits of every row of `hidden` (rows x vocab) as one stacked
     *  product. Row i equals logits(hidden, i, kc) bit for bit on every
     *  arm, because the readout kernels are row-local. */
    Matrix logits(const Matrix &hidden, const KernelContext &kc) const;

    /** Greedy token of a 1 x vocab logits row: argmax, ties toward the
     *  lowest token id. */
    static int argmax(const Matrix &logits);

    /** Greedy next token: argmax(logits(hidden, row, kc)). */
    int argmaxToken(const Matrix &hidden, int row,
                    const KernelContext &kc) const;

  private:
    Matrix embedding_; ///< vocab x dModel input rows
    Matrix readout_;   ///< vocab x dModel untied LM head
};

} // namespace tender

#endif // TENDER_RUNTIME_DECODE_ENGINE_H
