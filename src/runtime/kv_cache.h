/**
 * @file
 * Per-layer, per-head append-only K/V storage for the decode runtime,
 * paged over a BlockAllocator.
 *
 * Two modes share one interface:
 *
 *  - Fp32: rows are stored verbatim — the numerical reference. Decode
 *    against an Fp32 cache is bit-identical to running prefill over the
 *    full sequence (asserted in tests/test_runtime.cc), and the paging
 *    granularity never changes results (tests/test_paged_kv.cc). A K
 *    page is channel-major and a V page row-major (KVPageView), so
 *    attention reads the pages in place.
 *  - TenderQuantized: rows are stored as int8 codes grouped into
 *    row-chunks of `tender.rowChunk` tokens. Each chunk carries Tender
 *    per-chunk metadata (channel decomposition into power-of-two scale
 *    groups, per-channel scale indices, per-channel bias) produced by
 *    core/decompose + core/tender_quant from that chunk's own rows — the
 *    paper's per-chunk decomposition, applied to the cache as it grows.
 *
 * The quantized-KV contract: a query at position p reads every chunk
 * before its own chunk (p / rowChunk) from that chunk's frozen codes, and
 * its own chunk's rows up to p in fp32, exactly as they were appended.
 * Each chunk is decomposed and quantized exactly once, when its last row
 * arrives (exact per-channel min/max -> buildChunkMetaInto -> quantize),
 * and is immutable from then on. What a row reads is therefore a function
 * of its position alone, never of which rows shared its step: decode
 * equals prefill bit for bit, and preemption resume and speculative
 * verification need no replay of the original step grouping
 * (tests/test_runtime.cc QuantizedCacheDecodeMatchesPrefillBitExact).
 * The rows of the open (still-filling) chunk live in per-store fp32
 * staging; rows of chunks that freeze during a step stay staged until
 * trimStaging() runs after that layer's attention.
 *
 * Paged layout: instead of owning contiguous buffers, every (layer,
 * kv-head, K|V) store holds a *block table* into a BlockAllocator pool.
 * A block covers `blockTokens` tokens — by default the Tender row-chunk,
 * so a chunk IS a page — and logical row r of a store lives at
 * (table[r / blockTokens], r % blockTokens). Blocks are allocated as rows
 * arrive and returned to the pool's free list when the request retires,
 * so long-lived mixed batches recycle pages instead of fragmenting (the
 * vLLM-style serving layout). A cache constructed without an external
 * pool owns a private unbounded one, preserving the standalone API.
 *
 * Storage is keyed (layer, kv-head, K|V); appends to different caches or
 * different layers are independent, which is what lets the batch scheduler
 * parallelize appends and attention across requests (the shared pool's
 * free list is mutex-protected; payload writes stay disjoint).
 *
 * Prefix sharing (runtime/prefix_cache.h) is copy-on-write at block
 * granularity: adoptPrefix() maps a cache's leading block-table entries
 * onto already-populated blocks of another request's identical token
 * prefix (refcounted via BlockAllocator::share). Fully covered blocks are
 * never written again, so they are shared for the cache's whole life; a
 * partially covered tail block is copied the first time this cache must
 * write into it (the COW fault), so the shared payload — and therefore
 * every other reader's view — is never mutated. In quantized mode only
 * frozen chunks are shareable (the adopted length is chunk-aligned); the
 * open chunk is always private, because its rows live in the owner's
 * fp32 staging and reach a page only when the chunk freezes.
 */

#ifndef TENDER_RUNTIME_KV_CACHE_H
#define TENDER_RUNTIME_KV_CACHE_H

#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "core/tender_quant.h"
#include "model/config.h"
#include "runtime/block_allocator.h"
#include "tensor/matrix.h"
#include "util/fault_injection.h"

namespace tender {

/** Cache configuration; `tender` is only consulted in quantized mode. */
struct KVCacheConfig
{
    KVCacheMode mode = KVCacheMode::Fp32;
    /** Quantization parameters for TenderQuantized. rowChunk counts cached
     *  *tokens* per chunk (smaller chunks track per-token variance more
     *  tightly at slightly more metadata; Section III-C's chunking
     *  argument) and must be positive — paged storage has no
     *  single-growing-chunk mode. checkOverflow is not consulted by the
     *  cache itself; the fused attention path's integer kernel (gemmInt8)
     *  always checks its 32-bit accumulator. */
    TenderConfig tender;
    /** Page size in tokens; 0 picks the default: tender.rowChunk in
     *  quantized mode (page = chunk) and kDefaultFp32BlockTokens in Fp32
     *  mode (where `tender` stays unconsulted). In quantized mode this
     *  must be a multiple of rowChunk — chunk boundaries (and therefore
     *  numerics) never depend on the paging granularity, only the
     *  allocation granularity does. Large values emulate contiguous
     *  per-request slabs (the bench baseline). */
    int blockTokens = 0;

    static constexpr int kDefaultFp32BlockTokens = 32;

    KVCacheConfig() { tender.rowChunk = 32; }
};

/** Resolved page size in tokens (validates the config). */
int resolvedBlockTokens(const KVCacheConfig &config);

/** Modeled bytes of one stored Tender chunk of `rows` tokens: packed
 *  codes plus per-chunk metadata (fp32 bias and a 1-byte scale index per
 *  channel, fp32 scale per group — the Index Buffer / scale-table
 *  contents of Section IV-D). */
size_t tenderChunkBytes(int rows, int head_dim, const TenderConfig &config);

/** Pool geometry for caches of this model/config shape. */
BlockPoolConfig blockPoolConfigFor(const ModelConfig &model,
                                   const KVCacheConfig &config,
                                   size_t capacity_blocks);

/**
 * Zero-copy read view of one (layer, kv-head, K|V) store's quantized
 * history as a query at some position `pos` reads it (the contract in the
 * file comment). `frozen` holds the chunks before pos's own chunk in
 * logical-row order — int8 codes plus per-chunk Tender metadata
 * (decomposition groups, scale table, per-channel bias) pointing straight
 * into the block-allocator pages, no fp32 materialization — and `open`
 * points at the fp32 rows of pos's own chunk in the cache's staging.
 * Consumed by the fused integer-domain attention path
 * (attentionFusedQuantPanel in runtime/decode_engine). The view borrows
 * the pool pages and the staging rows: it is invalidated by the next
 * append to the store, by trimStaging() and by releaseAll().
 */
struct KVCodeView
{
    std::vector<const QuantizedChunk *> frozen; ///< chunks read as codes
    int rowChunk = 0;   ///< rows per frozen chunk
    int frozenRows = 0; ///< rows covered by `frozen`
    int rows = 0;       ///< history rows read (frozen + open)
    int alpha = 2;      ///< Tender rescale base (adjacent scale ratio)
    /** (rows - frozenRows) x headDim fp32 rows, row-major; null when
     *  rows == frozenRows. */
    const float *open = nullptr;
};

/**
 * Zero-copy read view of one (layer, kv-head) fp32 history as a query at
 * some position `pos` reads it: rows [0, min(pos + 1, length())), the
 * same rows keys()/values() return, as page pointers straight into the
 * block-allocator pool in logical-row order. A K page is channel-major —
 * row x, channel c at c * blockTokens + x — so a score tile reads
 * consecutive keys of one channel from one contiguous run; a V page is
 * row-major, row x at x * headDim. Consumed by attentionFp32Panel
 * (runtime/decode_engine). The view borrows the pages: the next append
 * to the store (which may COW its tail page), truncateRows() and
 * releaseAll() invalidate it.
 */
struct KVPageView
{
    std::vector<const float *> keys;   ///< channel-major K pages
    std::vector<const float *> values; ///< row-major V pages
    int blockTokens = 0;               ///< rows per page
    int rows = 0;                      ///< history rows read
};

class KVCache
{
  public:
    /**
     * `pool` is the block pool to page into (must outlive the cache and
     * match blockPoolConfigFor(model, config, ...) geometry); nullptr
     * creates a private unbounded pool. `reserved_blocks` is headroom the
     * caller already committed via BlockAllocator::tryReserve on this
     * cache's behalf — allocation draws it down first, and the destructor
     * returns whatever was never drawn.
     */
    KVCache(const ModelConfig &model, const KVCacheConfig &config,
            BlockAllocator *pool = nullptr, size_t reserved_blocks = 0);
    ~KVCache();

    KVCache(const KVCache &) = delete;
    KVCache &operator=(const KVCache &) = delete;
    KVCache(KVCache &&other) noexcept;
    KVCache &operator=(KVCache &&other) noexcept;

    const KVCacheConfig &config() const { return config_; }

    /** Tokens stored (identical across layers once a step completes). */
    int length() const { return length_; }

    /**
     * Append `t` projected rows (t x kvHeads*headDim) of keys and values
     * for one layer. Every layer must see the same row count each step;
     * the first completed append of a step advances length().
     */
    void append(int layer, const Matrix &k_rows, const Matrix &v_rows);

    /** Append rows [row0, row0 + rows) of stacked projection matrices —
     *  the decode engine's segment slice, without materializing a
     *  per-segment copy. Same contract as append() otherwise.
     *
     *  Failure containment boundary: appends run inside thread-pool
     *  workers, where an escaping exception would terminate the process.
     *  A RequestFault raised underneath (a block allocation that could
     *  not be satisfied, injected or real) is caught HERE and latched
     *  into failed()/failReason(); the append becomes a no-op, the
     *  decode engine skips this cache's remaining work for the step, and
     *  the scheduler — on its own thread — retires the owning request as
     *  Failed. Other caches' appends are untouched. */
    void appendRows(int layer, const Matrix &k, const Matrix &v, int row0,
                    int rows);

    /** True once an append faulted. A failed cache drops further appends
     *  and must not be read for new tokens; releaseAll() (or the
     *  destructor) still returns every block and undrawn reservation. */
    bool failed() const { return failReason_ != FailureReason::None; }

    /** Why the cache failed (None while healthy). */
    FailureReason failReason() const { return failReason_; }

    /** Human-readable detail of the latched fault ("" while healthy). */
    const std::string &failDetail() const { return failDetail_; }

    /** Reader position past every row: reads as the next appended row
     *  will, i.e. the whole history. */
    static constexpr int kNextRow = std::numeric_limits<int>::max();

    /** Materialized key history of (layer, kv-head) as a query at
     *  position `pos` reads it: rows [0, min(pos + 1, length())), each
     *  as it was appended. The decode path reads fp32 pages through
     *  pageView() instead; this copy serves the dequantize arm and the
     *  tests. Fp32 K pages are transposed back from channel-major, V
     *  pages copied verbatim. In quantized mode the chunks before
     *  pos's own chunk are dequantized and the rows of pos's chunk are
     *  the fp32 rows as appended (staging must still hold them: `pos`
     *  lies in the open chunk or in one frozen since the last
     *  trimStaging; a `pos` at or past length() reads as position
     *  length()). The frozen-chunk fp32 panel is memoized per store
     *  (frozen chunks are immutable for the store's lifetime), so
     *  repeated reads dequantize each chunk once. The memo makes
     *  concurrent materialization of the SAME store unsafe; the decode
     *  runtime's (segment, kv-head) task split never does that. */
    Matrix keys(int layer, int head, int pos = kNextRow) const;

    /** Materialized value history, same contract as keys(). */
    Matrix values(int layer, int head, int pos = kNextRow) const;

    /** Zero-copy page view of the K and V history as a query at `pos`
     *  reads it (Fp32 mode only; same rows as keys()/values()); see
     *  KVPageView for the layout and lifetime rules. */
    KVPageView pageView(int layer, int head, int pos = kNextRow) const;

    /** Zero-copy chunk-code view of the key history as a query at `pos`
     *  reads it (quantized mode only; same rows as keys()); see
     *  KVCodeView for lifetime rules. */
    KVCodeView keyView(int layer, int head, int pos = kNextRow) const;

    /** Chunk-code view of the value history, same contract as keyView. */
    KVCodeView valueView(int layer, int head, int pos = kNextRow) const;

    /**
     * Drop the fp32 staging rows of chunks that froze from every store of
     * `layer`, keeping only the open chunk's rows. The decode engine calls
     * it once the layer's attention has read them, so staging never
     * outlives the step that completed a chunk. A no-op in Fp32 mode.
     */
    void trimStaging(int layer);

    /** Modeled bytes held by the cache payload (actual rows, not block
     *  capacity): 4 B/element for Fp32; tenderChunkBytes per chunk for
     *  TenderQuantized. Excludes the dequantization memo — see
     *  dequantMemoBytes(). */
    size_t storedBytes() const;

    /** Resident bytes of the frozen-chunk fp32 dequantization memo that
     *  the fallback keys()/values() path accumulates (runtime working
     *  memory, not quantized storage — it can approach fp32Bytes() on a
     *  long-lived cache that is read every step). The fused attention
     *  path never materializes, so it never grows this. */
    size_t dequantMemoBytes() const;

    /** What Fp32 storage of the same history would cost (comparison). */
    size_t fp32Bytes() const;

    /** The pool this cache pages into (occupancy stats surface). */
    const BlockAllocator &pool() const { return *pool_; }

    /** Pool occupancy snapshot — peak bytes here are the serving-facing
     *  "how much memory did KV really take" number. */
    BlockPoolStats poolStats() const { return pool_->stats(); }

    /** Blocks currently held by this cache across all stores. */
    size_t blocksInUse() const;

    /** Worst-case pool blocks a cache holding `tokens` rows needs across
     *  all (layer, kv-head, K|V) stores — the admission reservation. */
    static size_t blocksForTokens(const ModelConfig &model,
                                  const KVCacheConfig &config, int tokens);

    /** Worst-case pool blocks a request needs beyond an adopted shared
     *  prefix of `shared_tokens` rows: blocks fully covered by the prefix
     *  are never written (no reservation), a partially covered tail block
     *  is COW-replaced on first write (counted), and everything after is
     *  freshly allocated. The scheduler reserves this instead of
     *  blocksForTokens when admission matched a cached prefix. */
    static size_t blocksForSuffix(const ModelConfig &model,
                                  const KVCacheConfig &config,
                                  int total_tokens, int shared_tokens);

    /** Number of (layer, kv-head, K|V) stores (prefix-cache iteration
     *  order; the same flattened [layer][head][K,V] order appends use). */
    size_t storeCount() const { return stores_.size(); }

    /** Block table of store `idx` in logical-row order. PrefixCache reads
     *  the leading entries at insert; treat as read-only. */
    const std::vector<int> &storeBlockTable(size_t idx) const;

    /**
     * Map the leading `rows` tokens of every store onto already-populated
     * blocks of an identical token prefix (copy-on-write sharing). Must be
     * called on an empty cache; acquires one reference per adopted block
     * via BlockAllocator::share, released again by releaseAll(). `blocks`
     * holds one table per store in storeCount() order, each covering
     * ceil(rows / blockTokens) blocks. In quantized mode `rows` must be
     * chunk-aligned — only frozen chunks are shareable; the open staging
     * chunk is always private. A partially covered tail block is copied
     * before this cache's first write into it, so the donor's payload is
     * never mutated and shared pages read bit-identically to private ones.
     */
    void adoptPrefix(const std::vector<std::vector<int>> &blocks, int rows);

    /**
     * Pop the last `n` appended rows from every store — speculative
     * decoding's rejection rollback (docs/speculation.md). Only legal
     * between steps (every layer at the same length) on a healthy cache.
     *
     * Fp32: row counts drop; the rows' pages stay allocated to this cache
     * (releasing them could let a concurrent admission claim them, and
     * re-appending must never fail under the reservation-gated admission
     * contract), so a later append simply overwrites them in place.
     *
     * TenderQuantized: `n` must stay within the open staging chunk —
     * frozen chunks are never reopened (their codes may be published,
     * COW-shared, or parked; the scheduler caps drafts so rollback never
     * reaches a chunk boundary). The open chunk is plain fp32 staging,
     * so the pop drops its last rows and leaves the cache exactly as if
     * they had never been appended (tests/test_speculation.cc).
     */
    void truncateRows(int n);

    /** Return every block (and any undrawn reservation) to the pool and
     *  reset to empty. Called by the destructor; idempotent. */
    void releaseAll();

  private:
    /** One of K or V for one (layer, kv-head). */
    struct Store
    {
        std::vector<int> blocks;    ///< block table, in logical-row order
        /** Quantized: fp32 rows [rows - staging.size() / headDim, rows)
         *  — the open chunk, plus any chunks frozen since trimStaging. */
        std::vector<float> staging;
        int rows = 0;               ///< tokens appended to this store
        /** Memoized fp32 panel of the frozen chunks (dequantize-on-read
         *  fallback path); extended as chunks are read, reset on release.
         *  Mutable because materialize() is logically const: frozen chunks
         *  never change, so the memo only caches, never alters, reads. */
        mutable std::vector<float> deqFrozen;
        mutable int deqFrozenRows = 0; ///< rows covered by deqFrozen
        /** Index of the adopted tail block this store may still write while
         *  it is shared (adoptPrefix with a non-block-aligned prefix), or
         *  -1. The write paths COW-copy it on first touch; every other
         *  block is either fully shared (never written again) or private,
         *  so the allocation-free append hot path pays no refcount probes
         *  beyond this single adopted block. */
        int sharedTailBlock = -1;
    };

    Store &storeOf(int layer, int head, bool value);
    const Store &storeOf(int layer, int head, bool value) const;
    void appendRowsImpl(int layer, const Matrix &k, const Matrix &v,
                        int row0, int rows);
    void appendStore(Store &store, bool value, const Matrix &rows, int row0,
                     int row1, int head);
    void freezeChunk(Store &store, int chunk);
    const float *stagedRow(const Store &store, int row) const;
    Matrix materialize(const Store &store, bool value, int pos) const;
    KVCodeView codeView(const Store &store, int pos) const;
    int allocateBlock();
    void ensureBlocks(Store &store, int block_index);
    void cowTailBlock(Store &store);
    QuantizedChunk &chunkSlotOf(const Store &store, int chunk) const;

    ModelConfig model_;
    KVCacheConfig config_;
    int headDim_ = 0;
    int blockTokens_ = 0;
    int chunksPerBlock_ = 1;
    int length_ = 0;
    std::vector<int> layerLength_;  ///< per-layer appended rows
    std::vector<Store> stores_;     ///< [layer][head][K,V] flattened

    std::unique_ptr<BlockAllocator> ownedPool_;
    BlockAllocator *pool_ = nullptr; ///< null only in a moved-from cache
    size_t reservedRemaining_ = 0;
    FailureReason failReason_ = FailureReason::None;
    std::string failDetail_;
};

} // namespace tender

#endif // TENDER_RUNTIME_KV_CACHE_H
