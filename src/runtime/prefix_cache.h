/**
 * @file
 * Token-prefix cache over the paged KV pool: vLLM-style prefix caching
 * built on the BlockAllocator's copy-on-write refcounts.
 *
 * A finished prefill publishes its leading *complete* blocks (every
 * (layer, kv-head, K|V) store's first floor(prompt / blockTokens) block
 * table entries) as one entry keyed by hashes of the token prefix; a
 * later admission whose prompt starts with the same tokens adopts those
 * blocks (KVCache::adoptPrefix) instead of recomputing them, skipping
 * that part of its prefill. Because K/V projections are row-local and
 * Tender chunk metadata is a pure function of the chunk's own rows, the
 * shared pages are bit-identical to what the consumer would have computed
 * cold — fp32 decode over a shared prefix produces bit-identical tokens,
 * and quantized consumers read the exact same chunk codes (asserted in
 * tests/test_prefix_cache.cc and gated in CI as prefix_reuse_bitexact).
 *
 * Sharing discipline:
 *  - Entries hold one pool reference per block (BlockAllocator::share),
 *    so cached prefixes survive the donor's retirement; eviction (LRU,
 *    driven by capacity or by the scheduler under pool pressure) releases
 *    the references, and the pool frees a block once the last holder —
 *    entry, donor, or consumer — lets go.
 *  - Only complete blocks the donor will never write again are published,
 *    so the donor's allocation-free append path never faults. A consumer
 *    may adopt a prefix ending mid-block (fp32 at any row, quantized at
 *    any frozen-chunk boundary); its first write into that tail block
 *    copies it (the COW fault), never mutating the shared page. The open
 *    staging chunk is never shared in either direction.
 *  - A lookup hit is verified token-by-token against the entry before it
 *    is used, so hash collisions cost time, never correctness (the hasher
 *    is pluggable precisely so tests can force collisions).
 *
 * Not thread-safe: meant to be driven from the scheduler's admission
 * loop, which runs between decode steps (never concurrently with
 * appends). That timing is also what makes the KV caches' unlocked
 * refcount discipline safe.
 */

#ifndef TENDER_RUNTIME_PREFIX_CACHE_H
#define TENDER_RUNTIME_PREFIX_CACHE_H

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/kv_cache.h"

namespace tender {

struct PrefixCacheConfig
{
    /** Live-entry cap; inserting past it evicts the LRU entry first. */
    size_t maxEntries = 64;
    /** Token-prefix hasher (first `n` ints of `tokens`). Pluggable so
     *  tests can force collisions; defaults to FNV-1a over the bytes. */
    std::function<uint64_t(const int *tokens, size_t n)> hasher;
};

struct PrefixCacheStats
{
    int64_t insertions = 0;    ///< entries created
    int64_t duplicates = 0;    ///< inserts deduplicated against an entry
    int64_t hits = 0;          ///< match() calls returning rows > 0
    int64_t misses = 0;
    int64_t evictions = 0;     ///< entries released (LRU or clear)
    int64_t verifyRejects = 0; ///< hash hits whose tokens did not match
    /** Matches dropped because a covered page's content checksum no
     *  longer equals the sum stamped at insert (corruption — injected
     *  via TENDER_FAULT_PLAN site "corrupt", or real). The entry is
     *  released so nothing else adopts it. */
    int64_t integrityRejects = 0;
};

/** One successful lookup: how many leading prompt rows can be served
 *  from shared blocks, and which entry serves them. */
struct PrefixMatch
{
    int rows = 0;                ///< 0 = miss
    size_t entry = size_t(-1);
};

class PrefixCache
{
  public:
    /** `pool` must be the pool every participating cache pages into and
     *  outlive the prefix cache; geometry comes from (model, config). */
    PrefixCache(const ModelConfig &model, const KVCacheConfig &config,
                BlockAllocator *pool, PrefixCacheConfig options = {});
    ~PrefixCache();

    PrefixCache(const PrefixCache &) = delete;
    PrefixCache &operator=(const PrefixCache &) = delete;

    /**
     * Publish the leading complete blocks of `cache` (which must hold at
     * least prompt.size() rows) under `prompt`'s token prefix. Shares
     * floor(prompt / blockTokens) * blockTokens rows — complete blocks
     * only, so the donor keeps appending without ever faulting. Returns
     * true when a new entry was created; an existing entry already
     * covering the same tokens deduplicates the insert (LRU-touched).
     */
    bool insert(const std::vector<int> &prompt, const KVCache &cache);

    /**
     * Longest verified cached prefix usable for `prompt`, capped at
     * prompt.size() - 1 rows (at least one prompt row must stay private
     * to produce the first decode step's hidden state). Quantized-mode
     * matches are chunk-aligned; fp32 matches may end at any row. Updates
     * the winning entry's LRU stamp.
     */
    PrefixMatch match(const std::vector<int> &prompt);

    /** Populate an empty cache with the matched shared prefix (shares the
     *  covered blocks into its block tables via KVCache::adoptPrefix). */
    void adopt(const PrefixMatch &match, KVCache &cache) const;

    /**
     * KV page integrity gate: recompute the content checksum of every
     * block `match` would adopt and compare against the sums stamped at
     * insert. On a mismatch the entry is released (nothing else may
     * adopt corrupted pages), stats().integrityRejects is bumped, and
     * false is returned — the caller falls back to cold prefill (a
     * resume recomputes from row 0 too), which recomputes the same rows
     * and keeps tokens bit-identical. Call between match() and adopt().
     */
    bool verifyMatch(const PrefixMatch &match);

    /** Release the least-recently-used entry (skipping `protect`).
     *  Returns false when nothing is evictable — the scheduler's
     *  pool-pressure loop stops there and defers admission. */
    bool evictLru(size_t protect = size_t(-1));

    /** Release every entry (pool refs returned; blocks free once the last
     *  cache holding them retires). */
    void clear();

    size_t entryCount() const { return liveEntries_; }

    /** Pool references currently held across all live entries. */
    size_t blocksHeld() const;

    const PrefixCacheStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        bool live = false;
        std::vector<int> tokens; ///< the shareable prefix, verbatim
        /** Per store (KVCache::storeCount order), the blocks covering
         *  `tokens`, each carrying one pool reference. */
        std::vector<std::vector<int>> blocks;
        /** Content checksum of each published block (same shape as
         *  `blocks`), stamped at insert — frozen pages are immutable, so
         *  any later divergence is corruption (verifyMatch). */
        std::vector<std::vector<uint64_t>> sums;
        std::vector<uint64_t> keys; ///< hashes registered in lookup_
        uint64_t lastUse = 0;
    };

    /** A registered (entry, prefix-length) pair under one hash bucket. */
    struct Slot
    {
        size_t entry = 0;
        int rows = 0;
    };

    uint64_t hashPrefix(const int *tokens, size_t n) const;
    /** (rows, hash) at every grain boundary up to max_rows, ascending —
     *  one rolling FNV-1a pass with the default hasher (O(max_rows)),
     *  per-length calls with a pluggable one. */
    std::vector<std::pair<int, uint64_t>>
    prefixHashes(const int *tokens, int max_rows) const;
    size_t findVerified(const int *tokens, int rows) const;
    void releaseEntry(size_t id);

    ModelConfig model_;
    KVCacheConfig config_;
    BlockAllocator *pool_;
    PrefixCacheConfig options_;
    int blockTokens_ = 0;
    /** Adoptable-length granularity: rowChunk in quantized mode (only
     *  frozen chunks are shareable), 1 in fp32 (any row boundary). */
    int grain_ = 1;

    std::vector<Entry> entries_;
    std::vector<size_t> freeSlots_; ///< dead entry indices for reuse
    std::unordered_map<uint64_t, std::vector<Slot>> lookup_;
    size_t liveEntries_ = 0;
    uint64_t clock_ = 0;
    PrefixCacheStats stats_;
};

} // namespace tender

#endif // TENDER_RUNTIME_PREFIX_CACHE_H
