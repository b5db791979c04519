/**
 * @file
 * Shared fixed-size block pool for paged KV-cache storage (the vLLM-style
 * layout the ROADMAP open item calls for).
 *
 * A *block* is the paging unit of the KV cache: a fixed number of tokens
 * (`blockTokens`) of one (layer, kv-head, K|V) store. Tender's row-chunks
 * are already fixed-size and self-describing, so in quantized mode a block
 * holds a whole number of chunks (page = chunk when blockTokens equals the
 * Tender rowChunk); in fp32 mode it holds `blockTokens x headDim` floats.
 * Requests own *block tables* (kv_cache.h) mapping logical rows to blocks
 * instead of contiguous buffers, so a churned mixed batch reuses retired
 * requests' blocks through the free list instead of fragmenting.
 *
 * Admission control is reservation-based: the scheduler reserves the
 * worst-case block count of a request before admitting it (tryReserve),
 * so appends mid-decode can never fail — a full pool defers admission
 * instead (the graceful-requeue path asserted in tests/test_paged_kv.cc).
 *
 * Blocks are refcounted for copy-on-write sharing (prefix caching / beam
 * search): share() adds a holder, release() drops one, and the block only
 * returns to the free list when the last holder lets go. A frozen block's
 * payload is immutable while shared — any owner that must write a shared
 * block copies it first (KVCache's COW fault path, counted in
 * BlockPoolStats::cowCopies) — which is what makes a Tender row-chunk
 * page safely shareable between requests: chunks are fixed-size and
 * self-describing (codes + per-chunk scale-table metadata), so a shared
 * page reads bit-identically to a private one.
 *
 * Thread safety: allocate/release/reserve are mutex-protected (the decode
 * runtime appends to different requests' caches concurrently). Payload
 * lookups are lock-free: storage lives in fixed-capacity slabs whose
 * addresses never move once created, and a block's payload is only ever
 * touched by its current owner.
 */

#ifndef TENDER_RUNTIME_BLOCK_ALLOCATOR_H
#define TENDER_RUNTIME_BLOCK_ALLOCATOR_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/tender_quant.h"

namespace tender {

/** KV storage modes (consumed by kv_cache.h; defined here so the pool can
 *  size its payload without a circular include). */
enum class KVCacheMode { Fp32, TenderQuantized };

/** Pool geometry. Built via blockPoolConfigFor() in kv_cache.h. */
struct BlockPoolConfig
{
    KVCacheMode mode = KVCacheMode::Fp32;
    int blockTokens = 32;    ///< K or V rows per block
    int headDim = 0;         ///< floats per row
    int chunksPerBlock = 1;  ///< quantized: blockTokens / tender.rowChunk
    /** Modeled bytes of one fully occupied block (payload + per-chunk
     *  metadata in quantized mode) — the unit of every stats byte count. */
    size_t blockBytes = 0;
    /** Hard pool size in blocks; 0 = unbounded (grow on demand). */
    size_t capacityBlocks = 0;
};

/** Occupancy/capacity counters (all block counts; bytes via blockBytes). */
struct BlockPoolStats
{
    size_t blockTokens = 0;
    size_t blockBytes = 0;
    size_t capacityBlocks = 0;      ///< 0 = unbounded
    size_t createdBlocks = 0;       ///< distinct blocks ever materialized
    size_t allocatedBlocks = 0;     ///< currently owned by caches
    size_t freeBlocks = 0;          ///< recycled, awaiting reuse
    size_t reservedBlocks = 0;      ///< admission headroom not yet drawn
    size_t peakAllocatedBlocks = 0;
    /** Peak of allocated + reserved: what contiguous per-request
     *  preallocation of the same admissions would have committed. */
    size_t peakCommittedBlocks = 0;
    /** Blocks currently held by more than one owner (COW-protected). */
    size_t sharedBlocks = 0;
    /** Blocks pinned on behalf of currently-preempted requests (their
     *  frozen KV parked in prefix-cache entries awaiting resume). An
     *  accounting gauge maintained by the scheduler via notePark /
     *  noteUnpark — a parked entry may still be LRU-evicted under pool
     *  pressure (resume then recomputes more), so this counts what the
     *  scheduler parked, not a separate allocation class. Returns to 0
     *  once every preempted request has resumed or been cancelled. */
    size_t parkedBlocks = 0;
    int64_t allocations = 0;
    int64_t releases = 0;           ///< blocks actually freed (refcount -> 0)
    int64_t reuses = 0;             ///< allocations served from the free list
    int64_t shares = 0;             ///< share() calls (refs handed out)
    int64_t cowCopies = 0;          ///< copy-on-write block copies
    int64_t parks = 0;              ///< notePark() events (preemptions)
    int64_t unparks = 0;            ///< noteUnpark() events (resume/cancel)

    size_t allocatedBytes() const { return allocatedBlocks * blockBytes; }
    size_t peakAllocatedBytes() const
    {
        return peakAllocatedBlocks * blockBytes;
    }
    size_t peakCommittedBytes() const
    {
        return peakCommittedBlocks * blockBytes;
    }
};

class BlockAllocator
{
  public:
    explicit BlockAllocator(const BlockPoolConfig &config);

    BlockAllocator(const BlockAllocator &) = delete;
    BlockAllocator &operator=(const BlockAllocator &) = delete;

    const BlockPoolConfig &config() const { return config_; }

    /**
     * Commit `blocks` of headroom for a request about to be admitted.
     * Returns false (and commits nothing) when the pool cannot hold them
     * alongside what is already allocated + reserved — the caller defers
     * admission. Always succeeds on an unbounded pool.
     */
    bool tryReserve(size_t blocks);

    /** Return unused reservation (a request retired before filling it). */
    void unreserve(size_t blocks);

    /**
     * Allocate one block. With `reserved`, draws down one previously
     * reserved block and cannot fail; otherwise fails with -1 once
     * allocated + reserved reaches capacity (bounded pools only).
     */
    int allocate(bool reserved);

    /** Drop one reference to a block. Only the last release returns it to
     *  the free list; quantized payload slots are then reset so a retired
     *  request's codes/metadata cannot leak into the block's next owner
     *  (and their heap memory is returned eagerly). */
    void release(int block);

    /**
     * Add a reference to an allocated block (copy-on-write sharing). While
     * refcount(block) > 1 the payload is immutable: a holder that must
     * write it copies first (allocate a fresh block + copyBlock + release
     * the shared one). Callers sharing blocks out of a *live* cache must
     * only share fully-written blocks that cache will never write again —
     * PrefixCache::insert's complete-leading-blocks policy — so the
     * cache's allocation-free append hot path needs no per-row refcount
     * probe (only the adopted tail block is ever checked).
     */
    void share(int block);

    /** Current reference count of an allocated block (1 = exclusive). */
    int refcount(int block) const;

    /** Record `blocks` as parked for a preempted request (pure accounting
     *  over refs the caller already holds via share(); see
     *  BlockPoolStats::parkedBlocks). */
    void notePark(size_t blocks);

    /** Undo a notePark when the preempted request resumes or cancels. */
    void noteUnpark(size_t blocks);

    /** Copy src's payload into dst (the COW fault path; dst must be a
     *  fresh allocation of this pool). Payload addresses are stable and a
     *  shared src is never written, so the copy runs outside the pool
     *  lock. Counted in stats().cowCopies. */
    void copyBlock(int src, int dst);

    /** Invariant audit for tests/bench: free blocks carry refcount 0 and
     *  appear once, every non-free created block carries refcount >= 1,
     *  and the allocated/free/shared gauges match a full rescan. */
    bool refcountsConsistent() const;

    /**
     * Content checksum of an allocated block (FNV-1a with one step per
     * 8-byte word, over the fp32 payload, or over codes + metadata + bit
     * width of every chunk slot in quantized mode — the self-describing
     * page layout is what makes this a complete content hash). Stamped
     * by PrefixCache::insert on published/parked pages and re-verified
     * before adoption/resume, so a corrupted shared page is detected
     * instead of silently decoding into wrong tokens. Only meaningful
     * for frozen (no-longer-written) blocks; the hash itself runs
     * outside the pool lock because frozen payloads are immutable.
     */
    uint64_t checksumBlock(int block) const;

    /** Fp32 payload of a block: blockTokens x headDim floats. The pool
     *  only copies and hashes it whole; the cache decides the layout (a
     *  K page is channel-major, a V page row-major: KVPageView in
     *  runtime/kv_cache.h). */
    float *fp32Rows(int block);
    const float *fp32Rows(int block) const;

    /** Quantized payload: chunk slot `slot` (< chunksPerBlock). */
    QuantizedChunk &chunkSlot(int block, int slot);
    const QuantizedChunk &chunkSlot(int block, int slot) const;

    BlockPoolStats stats() const;

  private:
    /** Fixed-capacity payload slab; never resized after construction, so
     *  payload addresses are stable under concurrent allocation. */
    struct Slab
    {
        std::vector<float> fp32;            ///< Fp32 mode payload
        std::vector<QuantizedChunk> chunks; ///< TenderQuantized payload
    };

    static constexpr int kSlabBlocks = 256;
    static constexpr size_t kMaxSlabs = 8192; ///< 2M-block hard ceiling

    Slab &slabOf(int block) const;
    void checkBlock(int block) const;

    BlockPoolConfig config_;
    /** Fixed-size pointer array (not a growable vector): lock-free payload
     *  lookups race only against in-place unique_ptr publication under
     *  mu_, never against a moving element array. */
    std::unique_ptr<std::unique_ptr<Slab>[]> slabs_;

    mutable std::mutex mu_;
    size_t slabCount_ = 0;
    std::vector<int> freeList_;
    std::vector<int> refcounts_; ///< per created block; 0 = on the free list
    BlockPoolStats stats_;
};

} // namespace tender

#endif // TENDER_RUNTIME_BLOCK_ALLOCATOR_H
