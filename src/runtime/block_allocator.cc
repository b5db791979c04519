#include "runtime/block_allocator.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"
#include "util/fault_injection.h"

namespace tender {

BlockAllocator::BlockAllocator(const BlockPoolConfig &config)
    : config_(config),
      slabs_(std::make_unique<std::unique_ptr<Slab>[]>(kMaxSlabs))
{
    TENDER_REQUIRE(config.blockTokens > 0 && config.headDim > 0,
                   "block pool needs positive block geometry");
    TENDER_REQUIRE(config.mode == KVCacheMode::Fp32 ||
                   config.chunksPerBlock > 0,
                   "quantized block pool needs chunksPerBlock > 0");
    TENDER_REQUIRE(config.capacityBlocks <= kSlabBlocks * kMaxSlabs,
                   "block pool capacity exceeds the slab ceiling");
    stats_.blockTokens = size_t(config.blockTokens);
    stats_.blockBytes = config.blockBytes;
    stats_.capacityBlocks = config.capacityBlocks;
}

BlockAllocator::Slab &
BlockAllocator::slabOf(int block) const
{
    return *slabs_[size_t(block) / kSlabBlocks];
}

void
BlockAllocator::checkBlock(int block) const
{
    TENDER_CHECK(block >= 0 &&
                 size_t(block) < stats_.createdBlocks &&
                 slabs_[size_t(block) / kSlabBlocks] != nullptr);
}

bool
BlockAllocator::tryReserve(size_t blocks)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (config_.capacityBlocks > 0 &&
        stats_.allocatedBlocks + stats_.reservedBlocks + blocks >
            config_.capacityBlocks)
        return false;
    stats_.reservedBlocks += blocks;
    stats_.peakCommittedBlocks =
        std::max(stats_.peakCommittedBlocks,
                 stats_.allocatedBlocks + stats_.reservedBlocks);
    return true;
}

void
BlockAllocator::unreserve(size_t blocks)
{
    std::lock_guard<std::mutex> lock(mu_);
    TENDER_CHECK(blocks <= stats_.reservedBlocks);
    stats_.reservedBlocks -= blocks;
}

int
BlockAllocator::allocate(bool reserved)
{
    std::lock_guard<std::mutex> lock(mu_);
    // Injected allocation failure (TENDER_FAULT_PLAN site "alloc"):
    // modeled as the pool failing to produce a page even though the
    // request holds reservation headroom — the class of fault a real
    // fleet sees when memory is oversubscribed behind the reservation
    // math. Checked before the reserved drawdown so the caller's
    // reservation accounting is untouched by a failed allocation.
    if (FaultInjector::instance().onHit(FaultSite::AllocFail) > 0)
        return -1;
    if (reserved) {
        TENDER_CHECK(stats_.reservedBlocks > 0);
        --stats_.reservedBlocks;
    } else if (config_.capacityBlocks > 0 &&
               stats_.allocatedBlocks + stats_.reservedBlocks >=
                   config_.capacityBlocks) {
        return -1; // exhausted: the caller defers/requeues
    }

    int id;
    if (!freeList_.empty()) {
        id = freeList_.back();
        freeList_.pop_back();
        TENDER_CHECK(refcounts_[size_t(id)] == 0);
        refcounts_[size_t(id)] = 1;
        ++stats_.reuses;
    } else {
        id = int(stats_.createdBlocks);
        const size_t slab = size_t(id) / kSlabBlocks;
        TENDER_REQUIRE(slab < kMaxSlabs,
                       "block pool exceeded the slab ceiling ("
                           << kSlabBlocks * kMaxSlabs << " blocks)");
        if (!slabs_[slab]) {
            auto s = std::make_unique<Slab>();
            if (config_.mode == KVCacheMode::Fp32)
                s->fp32.resize(size_t(kSlabBlocks) *
                               size_t(config_.blockTokens) *
                               size_t(config_.headDim));
            else
                s->chunks.resize(size_t(kSlabBlocks) *
                                 size_t(config_.chunksPerBlock));
            slabs_[slab] = std::move(s);
        }
        ++stats_.createdBlocks;
        refcounts_.push_back(1);
    }
    ++stats_.allocatedBlocks;
    ++stats_.allocations;
    stats_.peakAllocatedBlocks =
        std::max(stats_.peakAllocatedBlocks, stats_.allocatedBlocks);
    stats_.peakCommittedBlocks =
        std::max(stats_.peakCommittedBlocks,
                 stats_.allocatedBlocks + stats_.reservedBlocks);
    return id;
}

void
BlockAllocator::release(int block)
{
    std::lock_guard<std::mutex> lock(mu_);
    checkBlock(block);
    TENDER_CHECK(refcounts_[size_t(block)] > 0);
    if (--refcounts_[size_t(block)] > 0) {
        // Another holder (a cache or a prefix-cache entry) remains; the
        // block stays allocated and its payload stays live.
        if (refcounts_[size_t(block)] == 1) {
            TENDER_CHECK(stats_.sharedBlocks > 0);
            --stats_.sharedBlocks;
        }
        return;
    }
    TENDER_CHECK(stats_.allocatedBlocks > 0);
    if (config_.mode == KVCacheMode::TenderQuantized) {
        Slab &slab = slabOf(block);
        const size_t base = (size_t(block) % kSlabBlocks) *
            size_t(config_.chunksPerBlock);
        for (int s = 0; s < config_.chunksPerBlock; ++s)
            slab.chunks[base + size_t(s)] = QuantizedChunk{};
    }
    freeList_.push_back(block);
    --stats_.allocatedBlocks;
    ++stats_.releases;
}

void
BlockAllocator::share(int block)
{
    std::lock_guard<std::mutex> lock(mu_);
    checkBlock(block);
    TENDER_CHECK(refcounts_[size_t(block)] > 0);
    if (++refcounts_[size_t(block)] == 2)
        ++stats_.sharedBlocks;
    ++stats_.shares;
}

int
BlockAllocator::refcount(int block) const
{
    std::lock_guard<std::mutex> lock(mu_);
    checkBlock(block);
    return refcounts_[size_t(block)];
}

void
BlockAllocator::notePark(size_t blocks)
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_.parkedBlocks += blocks;
    ++stats_.parks;
}

void
BlockAllocator::noteUnpark(size_t blocks)
{
    std::lock_guard<std::mutex> lock(mu_);
    TENDER_CHECK(blocks <= stats_.parkedBlocks);
    stats_.parkedBlocks -= blocks;
    ++stats_.unparks;
}

void
BlockAllocator::copyBlock(int src, int dst)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        checkBlock(src);
        checkBlock(dst);
        TENDER_CHECK(src != dst);
        TENDER_CHECK(refcounts_[size_t(src)] > 0 &&
                     refcounts_[size_t(dst)] > 0);
        ++stats_.cowCopies;
    }
    if (config_.mode == KVCacheMode::Fp32) {
        const size_t n = size_t(config_.blockTokens) *
            size_t(config_.headDim);
        const float *from = fp32Rows(src);
        std::copy(from, from + n, fp32Rows(dst));
        return;
    }
    for (int s = 0; s < config_.chunksPerBlock; ++s)
        chunkSlot(dst, s) = chunkSlot(src, s);
}

bool
BlockAllocator::refcountsConsistent() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (stats_.allocatedBlocks + freeList_.size() != stats_.createdBlocks)
        return false;
    std::vector<uint8_t> free_mark(stats_.createdBlocks, 0);
    for (int b : freeList_) {
        if (b < 0 || size_t(b) >= stats_.createdBlocks ||
            free_mark[size_t(b)] || refcounts_[size_t(b)] != 0)
            return false;
        free_mark[size_t(b)] = 1;
    }
    size_t held = 0, shared = 0;
    for (size_t b = 0; b < stats_.createdBlocks; ++b) {
        if (free_mark[b])
            continue;
        if (refcounts_[b] < 1)
            return false;
        ++held;
        if (refcounts_[b] > 1)
            ++shared;
    }
    return held == stats_.allocatedBlocks && shared == stats_.sharedBlocks;
}

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** FNV-1a with one xor-multiply step per 8-byte word (bytes for a
 *  shorter tail). Each step is a bijection of the running hash (xor,
 *  then a multiply by an odd prime), so pages that differ in a single
 *  word always hash apart. */
uint64_t
hashBytes(uint64_t h, const void *p, size_t n)
{
    const unsigned char *bytes = static_cast<const unsigned char *>(p);
    size_t i = 0;
    for (; i + sizeof(uint64_t) <= n; i += sizeof(uint64_t)) {
        uint64_t word;
        std::memcpy(&word, bytes + i, sizeof(word));
        h ^= word;
        h *= kFnvPrime;
    }
    for (; i < n; ++i) {
        h ^= bytes[i];
        h *= kFnvPrime;
    }
    return h;
}

template <typename T>
uint64_t
hashVector(uint64_t h, const std::vector<T> &v)
{
    const uint64_t n = v.size();
    h = hashBytes(h, &n, sizeof(n));
    return hashBytes(h, v.data(), v.size() * sizeof(T));
}

} // namespace

uint64_t
BlockAllocator::checksumBlock(int block) const
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        checkBlock(block);
        TENDER_CHECK(refcounts_[size_t(block)] > 0);
    }
    // Frozen payloads are immutable (the COW discipline), so the hash
    // runs lock-free like copyBlock's payload pass.
    uint64_t h = kFnvOffset;
    if (config_.mode == KVCacheMode::Fp32)
        return hashBytes(h, fp32Rows(block),
                         size_t(config_.blockTokens) *
                             size_t(config_.headDim) * sizeof(float));
    for (int s = 0; s < config_.chunksPerBlock; ++s) {
        const QuantizedChunk &qc = chunkSlot(block, s);
        h = hashBytes(h, &qc.bits, sizeof(qc.bits));
        const int32_t shape[2] = {qc.codes.rows(), qc.codes.cols()};
        h = hashBytes(h, shape, sizeof(shape));
        h = hashVector(h, qc.codes.data());
        h = hashVector(h, qc.meta.bias);
        h = hashVector(h, qc.meta.group);
        h = hashVector(h, qc.meta.scale);
    }
    return h;
}

float *
BlockAllocator::fp32Rows(int block)
{
    TENDER_CHECK(config_.mode == KVCacheMode::Fp32);
    return slabOf(block).fp32.data() +
        (size_t(block) % kSlabBlocks) * size_t(config_.blockTokens) *
        size_t(config_.headDim);
}

const float *
BlockAllocator::fp32Rows(int block) const
{
    return const_cast<BlockAllocator *>(this)->fp32Rows(block);
}

QuantizedChunk &
BlockAllocator::chunkSlot(int block, int slot)
{
    TENDER_CHECK(config_.mode == KVCacheMode::TenderQuantized);
    TENDER_CHECK(slot >= 0 && slot < config_.chunksPerBlock);
    return slabOf(block).chunks[(size_t(block) % kSlabBlocks) *
                                    size_t(config_.chunksPerBlock) +
                                size_t(slot)];
}

const QuantizedChunk &
BlockAllocator::chunkSlot(int block, int slot) const
{
    return const_cast<BlockAllocator *>(this)->chunkSlot(block, slot);
}

BlockPoolStats
BlockAllocator::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    BlockPoolStats s = stats_;
    s.freeBlocks = freeList_.size();
    return s;
}

} // namespace tender
