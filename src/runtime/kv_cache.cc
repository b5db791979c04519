#include "runtime/kv_cache.h"

#include <algorithm>
#include <limits>

#include "core/decompose.h"
#include "quant/quantizer.h"

namespace tender {

namespace {

/** Quantize `rows` fp32 rows into slot.codes (same per-element
 *  arithmetic as quantizeChunk; the slot must already be sized and carry
 *  its metadata). */
void
quantizeRowsInto(QuantizedChunk &slot, const float *src, int rows, int dh,
                 int bits)
{
    const ChunkMeta &meta = slot.meta;
    const int *group = meta.group.data();
    const float *scale = meta.scale.data();
    const float *bias = meta.bias.data();
    for (int r = 0; r < rows; ++r, src += dh) {
        int32_t *dst = slot.codes.rowPtr(r);
        for (int c = 0; c < dh; ++c)
            dst[c] = quantizeValue(src[c] - bias[c], scale[group[c]],
                                   bits);
    }
}

/** Size the slot's code matrix in place (capacity reused, so a recycled
 *  page's slot is refilled without reallocating). */
void
sizeSlotCodes(QuantizedChunk &slot, int rows, int dh)
{
    if (slot.codes.cols() != dh)
        slot.codes = IntMatrix(0, dh);
    slot.codes.resizeRows(rows);
}

} // namespace

int
resolvedBlockTokens(const KVCacheConfig &config)
{
    if (config.mode == KVCacheMode::TenderQuantized) {
        TENDER_REQUIRE(config.tender.rowChunk > 0,
                       "a paged quantized KV cache needs tender.rowChunk > 0"
                       " (chunks are the paging unit)");
        const int bt = config.blockTokens > 0 ? config.blockTokens
                                              : config.tender.rowChunk;
        TENDER_REQUIRE(bt % config.tender.rowChunk == 0,
                       "KV blockTokens (" << bt << ") must be a multiple of"
                       " tender.rowChunk (" << config.tender.rowChunk
                       << ") so paging never moves chunk boundaries");
        return bt;
    }
    // Fp32 mode never consults `tender`; the page size is its own knob.
    return config.blockTokens > 0 ? config.blockTokens
                                  : KVCacheConfig::kDefaultFp32BlockTokens;
}

size_t
tenderChunkBytes(int rows, int head_dim, const TenderConfig &config)
{
    size_t b = (size_t(rows) * size_t(head_dim) * size_t(config.bits) + 7) /
        8;
    b += size_t(head_dim) * (sizeof(float) + 1);
    b += size_t(config.numGroups) * sizeof(float);
    return b;
}

BlockPoolConfig
blockPoolConfigFor(const ModelConfig &model, const KVCacheConfig &config,
                   size_t capacity_blocks)
{
    BlockPoolConfig pc;
    pc.mode = config.mode;
    pc.blockTokens = resolvedBlockTokens(config);
    pc.headDim = model.headDim();
    pc.capacityBlocks = capacity_blocks;
    if (config.mode == KVCacheMode::Fp32) {
        pc.chunksPerBlock = 1;
        pc.blockBytes = size_t(pc.blockTokens) * size_t(pc.headDim) *
            sizeof(float);
    } else {
        pc.chunksPerBlock = pc.blockTokens / config.tender.rowChunk;
        pc.blockBytes = size_t(pc.chunksPerBlock) *
            tenderChunkBytes(config.tender.rowChunk, pc.headDim,
                             config.tender);
    }
    return pc;
}

KVCache::KVCache(const ModelConfig &model, const KVCacheConfig &config,
                 BlockAllocator *pool, size_t reserved_blocks)
    : model_(model), config_(config), headDim_(model.headDim()),
      blockTokens_(resolvedBlockTokens(config)),
      layerLength_(size_t(model.nLayers), 0),
      stores_(size_t(model.nLayers) * size_t(model.kvHeads) * 2),
      reservedRemaining_(reserved_blocks)
{
    TENDER_REQUIRE(model.nLayers > 0 && model.kvHeads > 0 &&
                   model.headDim() > 0,
                   "KVCache needs a concrete model configuration");
    if (config_.mode == KVCacheMode::TenderQuantized)
        chunksPerBlock_ = blockTokens_ / config_.tender.rowChunk;
    if (pool) {
        pool_ = pool;
        const BlockPoolConfig &pc = pool->config();
        TENDER_REQUIRE(pc.mode == config_.mode &&
                       pc.blockTokens == blockTokens_ &&
                       pc.headDim == headDim_ &&
                       pc.chunksPerBlock == chunksPerBlock_,
                       "KV block pool geometry does not match this cache;"
                       " build it with blockPoolConfigFor()");
    } else {
        TENDER_REQUIRE(reserved_blocks == 0,
                       "a reservation needs an external pool");
        ownedPool_ = std::make_unique<BlockAllocator>(
            blockPoolConfigFor(model, config, /*capacity_blocks=*/0));
        pool_ = ownedPool_.get();
    }
}

KVCache::~KVCache()
{
    releaseAll();
}

KVCache::KVCache(KVCache &&other) noexcept
    : model_(std::move(other.model_)), config_(other.config_),
      headDim_(other.headDim_), blockTokens_(other.blockTokens_),
      chunksPerBlock_(other.chunksPerBlock_), length_(other.length_),
      layerLength_(std::move(other.layerLength_)),
      stores_(std::move(other.stores_)),
      ownedPool_(std::move(other.ownedPool_)), pool_(other.pool_),
      reservedRemaining_(other.reservedRemaining_),
      failReason_(other.failReason_),
      failDetail_(std::move(other.failDetail_))
{
    other.pool_ = nullptr;
    other.reservedRemaining_ = 0;
    other.stores_.clear();
    other.failReason_ = FailureReason::None;
    other.failDetail_.clear();
}

KVCache &
KVCache::operator=(KVCache &&other) noexcept
{
    if (this != &other) {
        releaseAll();
        model_ = std::move(other.model_);
        config_ = other.config_;
        headDim_ = other.headDim_;
        blockTokens_ = other.blockTokens_;
        chunksPerBlock_ = other.chunksPerBlock_;
        length_ = other.length_;
        layerLength_ = std::move(other.layerLength_);
        stores_ = std::move(other.stores_);
        ownedPool_ = std::move(other.ownedPool_);
        pool_ = other.pool_;
        reservedRemaining_ = other.reservedRemaining_;
        failReason_ = other.failReason_;
        failDetail_ = std::move(other.failDetail_);
        other.pool_ = nullptr;
        other.reservedRemaining_ = 0;
        other.stores_.clear();
        other.failReason_ = FailureReason::None;
        other.failDetail_.clear();
    }
    return *this;
}

void
KVCache::releaseAll()
{
    if (!pool_)
        return; // moved-from
    // A privately owned pool dies with the cache, but releasing through
    // the same path keeps its stats (and the release bookkeeping) honest.
    for (Store &s : stores_) {
        for (int b : s.blocks)
            pool_->release(b);
        s.blocks.clear();
        s.staging.clear();
        s.rows = 0;
        s.deqFrozen.clear();
        s.deqFrozen.shrink_to_fit();
        s.deqFrozenRows = 0;
        s.sharedTailBlock = -1;
    }
    if (reservedRemaining_ > 0) {
        pool_->unreserve(reservedRemaining_);
        reservedRemaining_ = 0;
    }
    std::fill(layerLength_.begin(), layerLength_.end(), 0);
    length_ = 0;
    failReason_ = FailureReason::None;
    failDetail_.clear();
}

KVCache::Store &
KVCache::storeOf(int layer, int head, bool value)
{
    TENDER_CHECK(layer >= 0 && layer < model_.nLayers);
    TENDER_CHECK(head >= 0 && head < model_.kvHeads);
    const size_t idx =
        (size_t(layer) * size_t(model_.kvHeads) + size_t(head)) * 2 +
        (value ? 1 : 0);
    return stores_[idx];
}

const KVCache::Store &
KVCache::storeOf(int layer, int head, bool value) const
{
    return const_cast<KVCache *>(this)->storeOf(layer, head, value);
}

int
KVCache::allocateBlock()
{
    const bool use_reserved = reservedRemaining_ > 0;
    const int id = pool_->allocate(use_reserved);
    if (id < 0)
        // Reservation-gated admission makes this unreachable on the happy
        // path; it fires when the pool genuinely reneges (fault injection,
        // or a caller appending past its reservation on a bounded pool).
        // Throw instead of exiting: appendRows latches the fault and the
        // scheduler fails exactly this request, not the process. The
        // reservation is NOT drawn down on failure, so the undrawn
        // headroom goes back to the pool intact at release.
        throw RequestFault(
            FailureReason::AllocFailed,
            "KV block allocation failed (pool capacity " +
                std::to_string(pool_->config().capacityBlocks) +
                " blocks, " + std::to_string(reservedRemaining_) +
                " reserved blocks undrawn)");
    if (use_reserved)
        --reservedRemaining_;
    return id;
}

void
KVCache::ensureBlocks(Store &store, int block_index)
{
    while (int(store.blocks.size()) <= block_index)
        store.blocks.push_back(allocateBlock());
}

/**
 * Copy-on-write fault for the adopted tail block: the only block a cache
 * may ever write while another holder (the prefix cache or the donor)
 * still references it. Copies the payload into a fresh private block,
 * releases the shared one, and rewires the block table; the shared page
 * is never mutated, so every other reader keeps a bit-identical view.
 * Once resolved — or if every other holder already released — the store
 * owns its whole tail exclusively and never probes refcounts again.
 */
void
KVCache::cowTailBlock(Store &store)
{
    const int bi = store.sharedTailBlock;
    store.sharedTailBlock = -1;
    const int block = store.blocks[size_t(bi)];
    if (pool_->refcount(block) <= 1)
        return; // the other holders retired first; write in place
    const int fresh = allocateBlock();
    pool_->copyBlock(block, fresh);
    pool_->release(block);
    store.blocks[size_t(bi)] = fresh;
}

QuantizedChunk &
KVCache::chunkSlotOf(const Store &store, int chunk) const
{
    const int block = store.blocks[size_t(chunk / chunksPerBlock_)];
    return pool_->chunkSlot(block, chunk % chunksPerBlock_);
}

void
KVCache::appendStore(Store &store, bool value, const Matrix &rows, int row0,
                     int row1, int head)
{
    const int dh = headDim_;
    const int c0 = head * dh;
    if (config_.mode == KVCacheMode::Fp32) {
        // One run of rows per page they land in.
        for (int r = row0; r < row1;) {
            const int block = store.rows / blockTokens_;
            ensureBlocks(store, block);
            if (block == store.sharedTailBlock)
                cowTailBlock(store);
            // Indexed, not blocks.back(): after truncateRows the table
            // keeps its trailing blocks, so the write target may not be
            // the last allocated block.
            float *page = pool_->fp32Rows(store.blocks[size_t(block)]);
            const int x0 = store.rows % blockTokens_;
            const int n = std::min(row1 - r, blockTokens_ - x0);
            if (value) {
                for (int x = 0; x < n; ++x) {
                    const float *src = rows.rowPtr(r + x) + c0;
                    std::copy(src, src + dh,
                              page + size_t(x0 + x) * size_t(dh));
                }
            } else {
                // Channel-major K page (the KVPageView layout).
                for (int c = 0; c < dh; ++c) {
                    float *dst = page + size_t(c) * size_t(blockTokens_) +
                        size_t(x0);
                    for (int x = 0; x < n; ++x)
                        dst[x] = rows.rowPtr(r + x)[c0 + c];
                }
            }
            store.rows += n;
            r += n;
        }
        return;
    }

    // TenderQuantized: stage the new rows, freezing each chunk the moment
    // its last row arrives. Chunk boundaries depend only on the store's
    // own row count — never on paging or batching. The buffer holds at
    // least one chunk, so single-row decode appends never reallocate, and
    // a long prefill grows it once instead of row by row.
    const int row_chunk = config_.tender.rowChunk;
    store.staging.reserve(
        std::max(store.staging.size() + size_t(row1 - row0) * size_t(dh),
                 size_t(row_chunk) * size_t(dh)));
    for (int r = row0; r < row1; ++r) {
        const float *src = rows.rowPtr(r) + c0;
        store.staging.insert(store.staging.end(), src, src + dh);
        ++store.rows;
        if (store.rows % row_chunk == 0)
            freezeChunk(store, store.rows / row_chunk - 1);
    }
}

const float *
KVCache::stagedRow(const Store &store, int row) const
{
    const int staged = int(store.staging.size()) / headDim_;
    TENDER_CHECK_MSG(row >= store.rows - staged && row < store.rows,
                     "KV row " << row << " is no longer staged (staging"
                     " holds rows " << store.rows - staged << ".."
                     << store.rows << ")");
    return store.staging.data() +
        size_t(row - (store.rows - staged)) * size_t(headDim_);
}

/**
 * Decompose and quantize chunk `chunk` from its staged fp32 rows: exact
 * per-channel min/max envelopes -> buildChunkMetaInto -> quantize, the
 * one and only time the chunk's metadata is derived. Allocation-free
 * after each thread's first freeze: per-store appends run concurrently
 * across requests, and per-call heap traffic would serialize them on the
 * allocator lock. The page is first touched here, so an open chunk holds
 * no pool block until it freezes.
 */
void
KVCache::freezeChunk(Store &store, int chunk)
{
    const int dh = headDim_;
    const int row_chunk = config_.tender.rowChunk;
    const float *rows = stagedRow(store, chunk * row_chunk);
    thread_local std::vector<float> minv, maxv;
    minv.assign(size_t(dh), std::numeric_limits<float>::infinity());
    maxv.assign(size_t(dh), -std::numeric_limits<float>::infinity());
    for (int r = 0; r < row_chunk; ++r) {
        const float *src = rows + size_t(r) * size_t(dh);
        for (int c = 0; c < dh; ++c) {
            minv[size_t(c)] = std::min(minv[size_t(c)], src[c]);
            maxv[size_t(c)] = std::max(maxv[size_t(c)], src[c]);
        }
    }
    ensureBlocks(store, chunk / chunksPerBlock_);
    if (chunk / chunksPerBlock_ == store.sharedTailBlock)
        cowTailBlock(store);
    QuantizedChunk &slot = chunkSlotOf(store, chunk);
    buildChunkMetaInto(slot.meta, minv.data(), maxv.data(), dh,
                       config_.tender);
    slot.bits = config_.tender.bits;
    sizeSlotCodes(slot, row_chunk, dh);
    quantizeRowsInto(slot, rows, row_chunk, dh, config_.tender.bits);
}

void
KVCache::trimStaging(int layer)
{
    if (config_.mode != KVCacheMode::TenderQuantized)
        return;
    const int row_chunk = config_.tender.rowChunk;
    const size_t chunk_floats = size_t(row_chunk) * size_t(headDim_);
    for (int h = 0; h < model_.kvHeads; ++h) {
        for (const bool value : {false, true}) {
            Store &store = storeOf(layer, h, value);
            const size_t keep =
                size_t(store.rows % row_chunk) * size_t(headDim_);
            const size_t drop = store.staging.size() - keep;
            if (drop == 0)
                continue;
            // A decode or verify step froze at most one chunk: erase in
            // place, so the capacity carries over and the next steps'
            // appends stay allocation-free. A step that froze several
            // (a prefill) grew the buffer to its whole length; hand that
            // back and keep one chunk's capacity.
            if (drop <= chunk_floats) {
                store.staging.erase(store.staging.begin(),
                                    store.staging.begin() +
                                        ptrdiff_t(drop));
                continue;
            }
            std::vector<float> open;
            open.reserve(chunk_floats);
            open.assign(store.staging.end() - ptrdiff_t(keep),
                        store.staging.end());
            store.staging.swap(open);
        }
    }
}

void
KVCache::truncateRows(int n)
{
    TENDER_REQUIRE(!failed(),
                   "truncateRows on a failed cache (its stores may be"
                   " uneven; the request must retire instead)");
    TENDER_CHECK(n >= 0 && n <= length_);
    if (n == 0)
        return;
    // Only between steps: every layer must hold the same rows, or the
    // pop would desynchronize the per-layer step bookkeeping.
    for (size_t l = 0; l < layerLength_.size(); ++l)
        TENDER_CHECK_MSG(layerLength_[l] == length_,
                         "truncateRows mid-step: layer " << l << " holds "
                         << layerLength_[l] << " rows, cache length is "
                         << length_);
    if (config_.mode == KVCacheMode::TenderQuantized) {
        // Frozen chunks are never reopened: their codes may be published
        // to the prefix cache, COW-shared, or parked for a preempted
        // request, and a reopen would rewrite pages other readers hold.
        // The scheduler caps each step's draft length so rejected rows
        // always stay inside the open staging chunk.
        const int staged = length_ % config_.tender.rowChunk;
        TENDER_REQUIRE(n <= staged,
                       "truncateRows(" << n << ") would cross the open-"
                       "chunk boundary (" << staged << " staged rows):"
                       " frozen chunks are never reopened");
    }
    for (Store &store : stores_) {
        // Fp32: pop the row count only. The rows' pages stay allocated to
        // this cache: releasing them could hand them to a concurrent
        // admission, and the re-append would then violate the
        // reservation-gated "appends mid-decode never fail" contract. A
        // later append overwrites the stale payload in place. Quantized:
        // the popped rows are open-chunk staging, nothing else saw them.
        store.rows -= n;
        if (config_.mode == KVCacheMode::TenderQuantized)
            store.staging.resize(store.staging.size() -
                                 size_t(n) * size_t(headDim_));
    }
    for (size_t l = 0; l < layerLength_.size(); ++l)
        layerLength_[l] -= n;
    length_ -= n;
}

void
KVCache::append(int layer, const Matrix &k_rows, const Matrix &v_rows)
{
    appendRows(layer, k_rows, v_rows, 0, k_rows.rows());
}

void
KVCache::appendRows(int layer, const Matrix &k, const Matrix &v, int row0,
                    int rows)
{
    if (failed())
        return; // faulted mid-step: drop the remaining layers' appends
    try {
        appendRowsImpl(layer, k, v, row0, rows);
    } catch (const RequestFault &fault) {
        // Containment: latch the fault instead of letting it escape the
        // thread-pool worker running this append. The store that faulted
        // keeps whatever rows it managed (releaseAll returns them); the
        // layer-consistency bookkeeping is left un-advanced for this
        // layer, which is fine because a failed cache accepts no further
        // appends and is never read for another token.
        failReason_ = fault.reason();
        failDetail_ = fault.what();
    }
}

void
KVCache::appendRowsImpl(int layer, const Matrix &k, const Matrix &v,
                        int row0, int rows)
{
    TENDER_CHECK(layer >= 0 && layer < model_.nLayers);
    const int t = rows;
    TENDER_CHECK(t > 0 && row0 >= 0 && row0 + t <= k.rows() &&
                 row0 + t <= v.rows());
    TENDER_CHECK(k.cols() == model_.kvHeads * headDim_);
    TENDER_CHECK(v.cols() == model_.kvHeads * headDim_);
    // Either the first layer of a new step (advancing length) or a later
    // layer catching up to it; anything else is a double/missed append.
    TENDER_CHECK_MSG(layerLength_[size_t(layer)] == length_ ||
                     layerLength_[size_t(layer)] + t == length_,
                     "KVCache::append: layer " << layer
                     << " out of step (layer length "
                     << layerLength_[size_t(layer)] << ", cache length "
                     << length_ << ", appending " << t << ")");

    for (int h = 0; h < model_.kvHeads; ++h) {
        appendStore(storeOf(layer, h, false), false, k, row0, row0 + t, h);
        appendStore(storeOf(layer, h, true), true, v, row0, row0 + t, h);
    }
    layerLength_[size_t(layer)] += t;
    length_ = std::max(length_, layerLength_[size_t(layer)]);
}

Matrix
KVCache::materialize(const Store &store, bool value, int pos) const
{
    TENDER_CHECK(pos >= 0);
    const int reader = std::min(pos, store.rows);
    const int rows = std::min(reader + 1, store.rows);
    Matrix out(rows, headDim_);
    if (config_.mode == KVCacheMode::Fp32) {
        // Walk the block table: V pages copy in bulk, K pages transpose
        // back from channel-major.
        for (int tok = 0; tok < rows; tok += blockTokens_) {
            const int n = std::min(blockTokens_, rows - tok);
            const float *src =
                pool_->fp32Rows(store.blocks[size_t(tok / blockTokens_)]);
            if (value) {
                std::copy(src, src + size_t(n) * size_t(headDim_),
                          out.rowPtr(tok));
                continue;
            }
            for (int x = 0; x < n; ++x) {
                float *dst = out.rowPtr(tok + x);
                for (int c = 0; c < headDim_; ++c)
                    dst[c] = src[size_t(c) * size_t(blockTokens_) +
                                 size_t(x)];
            }
        }
        return out;
    }
    // Frozen chunks are immutable for the store's lifetime, so their fp32
    // panel is dequantized once and extended as later reads reach further
    // chunks. The reader's own chunk comes verbatim from staging.
    const int row_chunk = config_.tender.rowChunk;
    const int own = reader / row_chunk * row_chunk;
    if (store.deqFrozenRows < own) {
        store.deqFrozen.resize(size_t(own) * size_t(headDim_));
        for (int c = store.deqFrozenRows / row_chunk; c < own / row_chunk;
             ++c) {
            const Matrix deq = dequantizeChunk(chunkSlotOf(store, c));
            TENDER_CHECK(deq.rows() == row_chunk);
            std::copy(deq.data().begin(), deq.data().end(),
                      store.deqFrozen.begin() +
                          size_t(c) * size_t(row_chunk) * size_t(headDim_));
        }
        store.deqFrozenRows = own;
    }
    std::copy(store.deqFrozen.begin(),
              store.deqFrozen.begin() + size_t(own) * size_t(headDim_),
              out.data().begin());
    if (rows > own) {
        const float *src = stagedRow(store, own);
        std::copy(src, src + size_t(rows - own) * size_t(headDim_),
                  out.rowPtr(own));
    }
    return out;
}

KVCodeView
KVCache::codeView(const Store &store, int pos) const
{
    TENDER_REQUIRE(config_.mode == KVCacheMode::TenderQuantized,
                   "KV code views exist only for TenderQuantized caches");
    TENDER_CHECK(pos >= 0);
    const int reader = std::min(pos, store.rows);
    KVCodeView v;
    v.rowChunk = config_.tender.rowChunk;
    v.rows = std::min(reader + 1, store.rows);
    v.alpha = config_.tender.alpha;
    const int frozen = reader / v.rowChunk;
    v.frozenRows = frozen * v.rowChunk;
    v.frozen.reserve(size_t(frozen));
    for (int c = 0; c < frozen; ++c)
        v.frozen.push_back(&chunkSlotOf(store, c));
    if (v.rows > v.frozenRows)
        v.open = stagedRow(store, v.frozenRows);
    return v;
}

KVPageView
KVCache::pageView(int layer, int head, int pos) const
{
    TENDER_REQUIRE(config_.mode == KVCacheMode::Fp32,
                   "KV page views exist only for Fp32 caches");
    TENDER_CHECK(pos >= 0);
    const Store &ks = storeOf(layer, head, false);
    const Store &vs = storeOf(layer, head, true);
    KVPageView v;
    v.blockTokens = blockTokens_;
    v.rows = std::min(std::min(pos, ks.rows) + 1, ks.rows);
    const size_t pages = size_t((v.rows + blockTokens_ - 1) / blockTokens_);
    v.keys.reserve(pages);
    v.values.reserve(pages);
    for (size_t p = 0; p < pages; ++p) {
        v.keys.push_back(pool_->fp32Rows(ks.blocks[p]));
        v.values.push_back(pool_->fp32Rows(vs.blocks[p]));
    }
    return v;
}

Matrix
KVCache::keys(int layer, int head, int pos) const
{
    return materialize(storeOf(layer, head, false), false, pos);
}

Matrix
KVCache::values(int layer, int head, int pos) const
{
    return materialize(storeOf(layer, head, true), true, pos);
}

KVCodeView
KVCache::keyView(int layer, int head, int pos) const
{
    return codeView(storeOf(layer, head, false), pos);
}

KVCodeView
KVCache::valueView(int layer, int head, int pos) const
{
    return codeView(storeOf(layer, head, true), pos);
}

size_t
KVCache::storedBytes() const
{
    size_t bytes = 0;
    if (config_.mode == KVCacheMode::Fp32) {
        for (const Store &s : stores_)
            bytes += size_t(s.rows) * size_t(headDim_) * sizeof(float);
        return bytes;
    }
    const int row_chunk = config_.tender.rowChunk;
    for (const Store &s : stores_) {
        const int full = s.rows / row_chunk;
        const int open = s.rows % row_chunk;
        bytes += size_t(full) *
            tenderChunkBytes(row_chunk, headDim_, config_.tender);
        if (open > 0)
            bytes += tenderChunkBytes(open, headDim_, config_.tender);
    }
    return bytes;
}

size_t
KVCache::dequantMemoBytes() const
{
    size_t bytes = 0;
    for (const Store &s : stores_)
        bytes += s.deqFrozen.capacity() * sizeof(float);
    return bytes;
}

size_t
KVCache::fp32Bytes() const
{
    size_t tokens = 0;
    for (size_t l = 0; l < layerLength_.size(); ++l)
        tokens += size_t(layerLength_[l]);
    return tokens * size_t(model_.kvHeads) * size_t(headDim_) * 2 *
        sizeof(float);
}

size_t
KVCache::blocksInUse() const
{
    size_t blocks = 0;
    for (const Store &s : stores_)
        blocks += s.blocks.size();
    return blocks;
}

size_t
KVCache::blocksForTokens(const ModelConfig &model,
                         const KVCacheConfig &config, int tokens)
{
    if (tokens <= 0)
        return 0;
    const int bt = resolvedBlockTokens(config);
    const size_t per_store = size_t((tokens + bt - 1) / bt);
    return per_store * size_t(model.nLayers) * size_t(model.kvHeads) * 2;
}

size_t
KVCache::blocksForSuffix(const ModelConfig &model,
                         const KVCacheConfig &config, int total_tokens,
                         int shared_tokens)
{
    if (shared_tokens <= 0)
        return blocksForTokens(model, config, total_tokens);
    TENDER_CHECK(shared_tokens < total_tokens);
    const int bt = resolvedBlockTokens(config);
    // Blocks fully covered by the shared prefix stay shared for the
    // cache's whole life; a partial tail block is COW-replaced (its
    // replacement is part of the ceil(total/bt) count), and everything
    // past the prefix is freshly allocated.
    const size_t full_shared = size_t(shared_tokens / bt);
    const size_t per_store = size_t((total_tokens + bt - 1) / bt);
    TENDER_CHECK(per_store >= full_shared);
    return (per_store - full_shared) * size_t(model.nLayers) *
        size_t(model.kvHeads) * 2;
}

const std::vector<int> &
KVCache::storeBlockTable(size_t idx) const
{
    TENDER_CHECK(idx < stores_.size());
    return stores_[idx].blocks;
}

void
KVCache::adoptPrefix(const std::vector<std::vector<int>> &blocks, int rows)
{
    TENDER_REQUIRE(length_ == 0 && rows > 0,
                   "adoptPrefix needs an empty cache and a non-empty "
                   "prefix");
    TENDER_REQUIRE(blocks.size() == stores_.size(),
                   "adoptPrefix needs one block table per store ("
                       << stores_.size() << "), got " << blocks.size());
    if (config_.mode == KVCacheMode::TenderQuantized)
        TENDER_REQUIRE(rows % config_.tender.rowChunk == 0,
                       "a shared quantized prefix must be chunk-aligned ("
                           << rows << " rows, rowChunk "
                           << config_.tender.rowChunk
                           << "): only frozen chunks are shareable, the "
                              "open staging chunk is always private");
    const size_t n_blocks =
        size_t((rows + blockTokens_ - 1) / blockTokens_);
    const bool partial_tail = rows % blockTokens_ != 0;
    for (size_t s = 0; s < stores_.size(); ++s) {
        Store &store = stores_[s];
        TENDER_CHECK(store.blocks.empty() && store.rows == 0);
        TENDER_REQUIRE(blocks[s].size() == n_blocks,
                       "adoptPrefix: store " << s << " got "
                           << blocks[s].size() << " blocks for " << rows
                           << " rows (expected " << n_blocks << ")");
        store.blocks = blocks[s];
        for (int b : store.blocks)
            pool_->share(b);
        store.rows = rows;
        // A partially covered tail block is still writable by this cache
        // (the suffix lands in it); mark it for the COW fault path.
        store.sharedTailBlock =
            partial_tail ? int(n_blocks) - 1 : -1;
    }
    std::fill(layerLength_.begin(), layerLength_.end(), rows);
    length_ = rows;
}

} // namespace tender
