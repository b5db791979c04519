/**
 * @file
 * Tests for copy-on-write prefix caching over the paged KV pool
 * (src/runtime/prefix_cache.h + block-allocator refcounts): refcounted
 * free-list reuse, COW faults on writes to shared blocks (payload of the
 * donor and of every other reader never mutates), hash-collision safety
 * (token verification, not hash equality, decides a hit), LRU eviction
 * under pool pressure, shared-prefix decode bit-identical to cold decode
 * (fp32 tokens and quantized chunk codes), and preservation of the
 * scheduler's admission-order independence.
 */

#include <gtest/gtest.h>

#include "model/transformer.h"
#include "runtime/batch_scheduler.h"
#include "runtime/prefix_cache.h"
#include "util/rng.h"

namespace tender {
namespace {

ModelConfig
smallDecoder(int kv_heads = 2)
{
    ModelConfig cfg;
    cfg.name = "prefix-cache-test";
    cfg.family = Family::Opt;
    cfg.dModel = 64;
    cfg.nHeads = 4;
    cfg.kvHeads = kv_heads;
    cfg.nLayers = 2;
    cfg.dFfn = 128;
    cfg.decoder = true;
    return cfg;
}

/** Append the leading `rows` rows of (k, v) to every layer of `cache`. */
void
appendAllLayers(KVCache &cache, const ModelConfig &cfg, const Matrix &k,
                const Matrix &v, int row0, int rows)
{
    for (int l = 0; l < cfg.nLayers; ++l)
        cache.appendRows(l, k, v, row0, rows);
}

std::vector<int>
iotaTokens(int n, int start = 0)
{
    std::vector<int> t(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        t[size_t(i)] = start + i;
    return t;
}

/** Requests sharing a system prompt with distinct suffixes/budgets. */
std::vector<GenRequest>
sharedPromptRequests(int sys_len, int n)
{
    const std::vector<int> sys = iotaTokens(sys_len, 5);
    std::vector<GenRequest> requests;
    for (int id = 0; id < n; ++id) {
        GenRequest r;
        r.id = id;
        r.promptTokens = sys;
        const int suffix = 2 + id % 4;
        for (int t = 0; t < suffix; ++t)
            r.promptTokens.push_back((40 + id * 7 + t) % 64);
        r.maxNewTokens = 3 + id % 3;
        requests.push_back(r);
    }
    return requests;
}

SchedulerOptions
withKernels(SchedulerOptions options, const KernelContext &kc)
{
    options.decode.kernels = &kc;
    options.vocabSize = 64;
    return options;
}

/** Submit + drain; `stagger` runs one step after the first submit so the
 *  leader's prefill publishes its prefix before followers admit. */
std::vector<GenResult>
runRequests(BatchScheduler &scheduler,
            const std::vector<GenRequest> &requests, bool stagger = false)
{
    auto it = requests.begin();
    if (stagger && it != requests.end()) {
        scheduler.submit(*it++);
        scheduler.step();
    }
    for (; it != requests.end(); ++it)
        scheduler.submit(*it);
    return scheduler.drain();
}

TEST(BlockAllocatorCow, RefcountedFreeListReuse)
{
    BlockPoolConfig pc;
    pc.mode = KVCacheMode::Fp32;
    pc.blockTokens = 4;
    pc.headDim = 8;
    pc.blockBytes = 4 * 8 * sizeof(float);
    BlockAllocator pool(pc);

    const int a = pool.allocate(false);
    const int b = pool.allocate(false);
    EXPECT_EQ(1, pool.refcount(a));

    // A shared block survives its first release and is freed (and only
    // then recycled) by the last one.
    pool.share(a);
    EXPECT_EQ(2, pool.refcount(a));
    EXPECT_EQ(1u, pool.stats().sharedBlocks);
    EXPECT_EQ(1, pool.stats().shares);
    pool.release(a);
    EXPECT_EQ(1, pool.refcount(a));
    EXPECT_EQ(0u, pool.stats().sharedBlocks);
    EXPECT_EQ(0u, pool.stats().freeBlocks);
    EXPECT_EQ(2u, pool.stats().allocatedBlocks);
    pool.release(a);
    EXPECT_EQ(1u, pool.stats().freeBlocks);
    EXPECT_EQ(1u, pool.stats().allocatedBlocks);

    // The freed block is recycled with a fresh exclusive refcount.
    const int c = pool.allocate(false);
    EXPECT_EQ(a, c);
    EXPECT_EQ(1, pool.refcount(c));
    EXPECT_EQ(1, pool.stats().reuses);
    EXPECT_TRUE(pool.refcountsConsistent());
    pool.release(b);
    pool.release(c);
    EXPECT_TRUE(pool.refcountsConsistent());
    EXPECT_EQ(0u, pool.stats().allocatedBlocks);
}

TEST(PrefixCacheTest, CowFaultOnWriteToSharedBlockFp32)
{
    const ModelConfig cfg = smallDecoder();
    KVCacheConfig cache_cfg; // fp32
    cache_cfg.blockTokens = 4;
    BlockAllocator pool(blockPoolConfigFor(cfg, cache_cfg, 0));
    PrefixCache prefix(cfg, cache_cfg, &pool);

    Rng rng(31);
    const int cols = cfg.kvHeads * cfg.headDim();
    const Matrix k = randomGaussian(12, cols, rng);
    const Matrix v = randomGaussian(12, cols, rng);

    KVCache donor(cfg, cache_cfg, &pool);
    appendAllLayers(donor, cfg, k, v, 0, 10);
    EXPECT_TRUE(prefix.insert(iotaTokens(10), donor));
    // Complete blocks only: 10 tokens at blockTokens=4 publish 8 rows.
    EXPECT_EQ(donor.storeCount() * 2, prefix.blocksHeld());
    const Matrix donor_keys_before = donor.keys(0, 0);

    // A prompt that diverges mid-block shares only the common 6 rows; the
    // adopted tail block (rows 4..7, valid to 6) is still shared.
    std::vector<int> prompt = iotaTokens(6);
    prompt.push_back(99);
    prompt.push_back(98);
    const PrefixMatch m = prefix.match(prompt);
    ASSERT_EQ(6, m.rows);

    KVCache consumer(cfg, cache_cfg, &pool);
    prefix.adopt(m, consumer);
    EXPECT_EQ(6, consumer.length());
    EXPECT_GT(pool.stats().sharedBlocks, 0u);

    // Writing row 6 lands in the shared tail block: the consumer must
    // fault it private, once per store, without touching the shared page.
    const Matrix k2 = randomGaussian(4, cols, rng);
    const Matrix v2 = randomGaussian(4, cols, rng);
    appendAllLayers(consumer, cfg, k2, v2, 0, 3);
    EXPECT_EQ(int64_t(consumer.storeCount()), pool.stats().cowCopies);

    EXPECT_TRUE(donor_keys_before == donor.keys(0, 0))
        << "COW write mutated the donor's shared page";
    // The consumer sees the shared prefix verbatim and its own suffix.
    const Matrix ck = consumer.keys(0, 0);
    ASSERT_EQ(9, ck.rows());
    for (int r = 0; r < 6; ++r)
        for (int c = 0; c < cfg.headDim(); ++c)
            EXPECT_EQ(donor_keys_before(r, c), ck(r, c));
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < cfg.headDim(); ++c)
            EXPECT_EQ(k2(r, c), ck(6 + r, c));
    EXPECT_TRUE(pool.refcountsConsistent());
}

TEST(PrefixCacheTest, Fp32KeysReturnRowsAsAppendedAfterCowAndTruncate)
{
    // K pages are stored channel-major and V pages row-major; keys() and
    // values() must still return the rows as appended, and the page view
    // must address the same elements, after a COW tail copy and after a
    // truncateRows followed by a re-append.
    const ModelConfig cfg = smallDecoder();
    KVCacheConfig cache_cfg; // fp32
    cache_cfg.blockTokens = 4;
    BlockAllocator pool(blockPoolConfigFor(cfg, cache_cfg, 0));
    PrefixCache prefix(cfg, cache_cfg, &pool);
    const int dh = cfg.headDim();
    Rng rng(37);
    const int cols = cfg.kvHeads * dh;
    const Matrix k = randomGaussian(10, cols, rng);
    const Matrix v = randomGaussian(10, cols, rng);
    const Matrix k2 = randomGaussian(5, cols, rng);
    const Matrix v2 = randomGaussian(5, cols, rng);
    const Matrix k3 = randomGaussian(2, cols, rng);
    const Matrix v3 = randomGaussian(2, cols, rng);

    KVCache donor(cfg, cache_cfg, &pool);
    appendAllLayers(donor, cfg, k, v, 0, 10);
    ASSERT_TRUE(prefix.insert(iotaTokens(10), donor));
    std::vector<int> prompt = iotaTokens(6);
    prompt.push_back(99);
    const PrefixMatch m = prefix.match(prompt);
    ASSERT_EQ(6, m.rows);
    KVCache consumer(cfg, cache_cfg, &pool);
    prefix.adopt(m, consumer);
    // Rows 6..10 land in the shared tail block (COW) and the next one.
    appendAllLayers(consumer, cfg, k2, v2, 0, 5);
    ASSERT_EQ(int64_t(consumer.storeCount()), pool.stats().cowCopies);

    // Expected rows per head: k/v rows 0..5, then k2/v2 rows 0..4.
    const auto expect = [&](const KVCache &cache, const Matrix &tail_k,
                            const Matrix &tail_v, int tail_rows,
                            const char *what) {
        for (int l = 0; l < cfg.nLayers; ++l) {
            for (int h = 0; h < cfg.kvHeads; ++h) {
                const Matrix keys = cache.keys(l, h);
                const Matrix values = cache.values(l, h);
                const KVPageView view = cache.pageView(l, h);
                ASSERT_EQ(6 + tail_rows, keys.rows()) << what;
                ASSERT_EQ(keys.rows(), view.rows) << what;
                for (int r = 0; r < keys.rows(); ++r) {
                    const bool head = r < 6;
                    const Matrix &ks = head ? k : tail_k;
                    const Matrix &vs = head ? v : tail_v;
                    const int sr = head ? r : r - 6;
                    const float *kpage =
                        view.keys[size_t(r / view.blockTokens)];
                    const float *vpage =
                        view.values[size_t(r / view.blockTokens)];
                    const int x = r % view.blockTokens;
                    for (int c = 0; c < dh; ++c) {
                        EXPECT_EQ(ks(sr, h * dh + c), keys(r, c))
                            << what << " K row " << r;
                        EXPECT_EQ(vs(sr, h * dh + c), values(r, c))
                            << what << " V row " << r;
                        EXPECT_EQ(keys(r, c),
                                  kpage[c * view.blockTokens + x]);
                        EXPECT_EQ(values(r, c), vpage[x * dh + c]);
                    }
                }
            }
        }
    };
    expect(consumer, k2, v2, 5, "after COW");

    // Pop three rows (across a page boundary) and re-append two others.
    consumer.truncateRows(3);
    appendAllLayers(consumer, cfg, k3, v3, 0, 2);
    Matrix tail_k = k2.rowSlice(0, 4), tail_v = v2.rowSlice(0, 4);
    for (int r = 0; r < 2; ++r)
        for (int c = 0; c < cols; ++c) {
            tail_k(2 + r, c) = k3(r, c);
            tail_v(2 + r, c) = v3(r, c);
        }
    expect(consumer, tail_k, tail_v, 4, "after truncate + re-append");
    EXPECT_TRUE(pool.refcountsConsistent());
}

TEST(PrefixCacheTest, QuantizedSharedCodesBitIdenticalAndCowOnOpenSlot)
{
    // rowChunk 4, blockTokens 8: two chunks per page, so a chunk-aligned
    // prefix can end mid-block and the consumer's next chunk lands in the
    // still-shared tail page (the quantized COW fault).
    const ModelConfig cfg = smallDecoder();
    KVCacheConfig cache_cfg;
    cache_cfg.mode = KVCacheMode::TenderQuantized;
    cache_cfg.tender.rowChunk = 4;
    cache_cfg.blockTokens = 8;
    BlockAllocator pool(blockPoolConfigFor(cfg, cache_cfg, 0));
    PrefixCache prefix(cfg, cache_cfg, &pool);

    Rng rng(77);
    const int cols = cfg.kvHeads * cfg.headDim();
    const Matrix k = randomGaussian(12, cols, rng);
    const Matrix v = randomGaussian(12, cols, rng);

    KVCache donor(cfg, cache_cfg, &pool);
    appendAllLayers(donor, cfg, k, v, 0, 12);
    EXPECT_TRUE(prefix.insert(iotaTokens(12), donor));

    // Divergence after 5 tokens: the chunk-aligned match is 4 rows — one
    // frozen chunk in a half-covered page.
    std::vector<int> prompt = iotaTokens(5);
    prompt[4] = 500;
    prompt.push_back(501);
    const PrefixMatch m = prefix.match(prompt);
    ASSERT_EQ(4, m.rows);

    KVCache consumer(cfg, cache_cfg, &pool);
    prefix.adopt(m, consumer);

    // Shared pages read bit-identically to a cold cache that computed the
    // same rows itself: same codes, same scale tables, same groups.
    KVCache cold(cfg, cache_cfg, &pool);
    appendAllLayers(cold, cfg, k, v, 0, 4);
    for (int l = 0; l < cfg.nLayers; ++l) {
        for (int h = 0; h < cfg.kvHeads; ++h) {
            const KVCodeView shared_view = consumer.keyView(l, h);
            const KVCodeView cold_view = cold.keyView(l, h);
            ASSERT_EQ(1u, shared_view.frozen.size());
            ASSERT_EQ(1u, cold_view.frozen.size());
            const QuantizedChunk &s = *shared_view.frozen[0];
            const QuantizedChunk &c = *cold_view.frozen[0];
            EXPECT_TRUE(s.codes == c.codes);
            EXPECT_EQ(s.bits, c.bits);
            EXPECT_EQ(s.meta.scale, c.meta.scale);
            EXPECT_EQ(s.meta.bias, c.meta.bias);
            EXPECT_EQ(s.meta.group, c.meta.group);
        }
    }

    // The open chunk lives in fp32 staging until it freezes, so the
    // consumer first writes the shared tail page when its next 4 rows
    // complete chunk 1: COW must fault the page private and leave the
    // donor's frozen chunk bytes untouched.
    const IntMatrix donor_chunk1_before =
        donor.keyView(0, 0).frozen[1]->codes;
    const Matrix k2 = randomGaussian(4, cols, rng);
    const Matrix v2 = randomGaussian(4, cols, rng);
    appendAllLayers(consumer, cfg, k2, v2, 0, 2);
    EXPECT_EQ(0, pool.stats().cowCopies);
    appendAllLayers(consumer, cfg, k2, v2, 2, 2);
    EXPECT_EQ(int64_t(consumer.storeCount()), pool.stats().cowCopies);
    EXPECT_TRUE(donor_chunk1_before == donor.keyView(0, 0).frozen[1]->codes)
        << "quantized COW write mutated the donor's shared page";
    EXPECT_TRUE(pool.refcountsConsistent());
}

TEST(PrefixCacheTest, HashCollisionSafetyVerifiesTokens)
{
    const ModelConfig cfg = smallDecoder();
    KVCacheConfig cache_cfg;
    cache_cfg.blockTokens = 4;
    BlockAllocator pool(blockPoolConfigFor(cfg, cache_cfg, 0));
    PrefixCacheConfig options;
    // Worst case: every prefix of every entry hashes identically.
    options.hasher = [](const int *, size_t) { return uint64_t(42); };
    PrefixCache prefix(cfg, cache_cfg, &pool, options);

    Rng rng(5);
    const int cols = cfg.kvHeads * cfg.headDim();
    const Matrix k = randomGaussian(8, cols, rng);
    const Matrix v = randomGaussian(8, cols, rng);
    KVCache donor(cfg, cache_cfg, &pool);
    appendAllLayers(donor, cfg, k, v, 0, 8);
    EXPECT_TRUE(prefix.insert(iotaTokens(8, 100), donor));

    // Same hash, different tokens: must miss (and count the rejects).
    const PrefixMatch miss = prefix.match(iotaTokens(8, 900));
    EXPECT_EQ(0, miss.rows);
    EXPECT_GT(prefix.stats().verifyRejects, 0);

    // True token prefix still hits through the collision bucket.
    const PrefixMatch hit = prefix.match(iotaTokens(9, 100));
    EXPECT_EQ(8, hit.rows);

    // Dedup is also token-verified, not hash-verified.
    KVCache donor2(cfg, cache_cfg, &pool);
    appendAllLayers(donor2, cfg, k, v, 0, 8);
    EXPECT_TRUE(prefix.insert(iotaTokens(8, 300), donor2));
    EXPECT_EQ(2u, prefix.entryCount());
}

TEST(PrefixCacheTest, SharedPrefixDecodeBitIdenticalToColdFp32)
{
    SyntheticModel model(smallDecoder(), 23);
    KernelContext kc(Backend::Serial);
    const std::vector<GenRequest> requests = sharedPromptRequests(20, 6);

    SchedulerOptions cold;
    cold.maxBatch = 3;
    cold.decode.cache.blockTokens = 8;
    BatchScheduler cold_scheduler(model, withKernels(cold, kc));
    const auto baseline = runRequests(cold_scheduler, requests);

    SchedulerOptions shared = cold;
    shared.prefixCache = true;
    BatchScheduler scheduler(model, withKernels(shared, kc));
    const auto cached = runRequests(scheduler, requests, /*stagger=*/true);

    // The cache actually engaged: followers skipped their shared prompt.
    EXPECT_GT(scheduler.stats().prefixHits, 0);
    EXPECT_GT(scheduler.stats().prefillSkippedRows, 0);
    EXPECT_GT(scheduler.stats().prefixInsertions, 0);

    ASSERT_EQ(baseline.size(), cached.size());
    for (size_t i = 0; i < baseline.size(); ++i)
        EXPECT_EQ(baseline[i].tokens, cached[i].tokens)
            << "shared-prefix fp32 decode diverged from cold decode, id "
            << baseline[i].id;
}

TEST(PrefixCacheTest, SharedPrefixDecodeMatchesColdQuantized)
{
    SyntheticModel model(smallDecoder(), 29);
    KernelContext kc(Backend::Serial);
    const std::vector<GenRequest> requests = sharedPromptRequests(18, 6);

    SchedulerOptions cold;
    cold.maxBatch = 3;
    cold.decode.cache.mode = KVCacheMode::TenderQuantized;
    cold.decode.cache.tender.rowChunk = 4;
    cold.decode.cache.blockTokens = 8;
    BatchScheduler cold_scheduler(model, withKernels(cold, kc));
    const auto baseline = runRequests(cold_scheduler, requests);

    // Both attention paths must agree with cold decode: shared frozen
    // chunk pages carry bit-identical codes, so the dequantize oracle and
    // the fused integer path both see exactly the cold cache's values.
    for (const bool fused : {false, true}) {
        SchedulerOptions shared = cold;
        shared.prefixCache = true;
        shared.decode.fusedQuantKv = fused;
        BatchScheduler scheduler(model, withKernels(shared, kc));
        const auto cached = runRequests(scheduler, requests,
                                        /*stagger=*/true);
        EXPECT_GT(scheduler.stats().prefixHits, 0);
        ASSERT_EQ(baseline.size(), cached.size());
        for (size_t i = 0; i < baseline.size(); ++i)
            EXPECT_EQ(baseline[i].tokens, cached[i].tokens)
                << "quantized shared-prefix decode (fused=" << fused
                << ") diverged from cold decode, id " << baseline[i].id;
    }
}

TEST(PrefixCacheTest, EvictionUnderPoolPressure)
{
    SyntheticModel model(smallDecoder(), 41);
    KernelContext kc(Backend::Serial);
    // Distinct prompts: nothing matches, so cached prefixes are pure pool
    // pressure that admission must be able to reclaim.
    std::vector<GenRequest> requests;
    for (int id = 0; id < 4; ++id) {
        GenRequest r;
        r.id = id;
        for (int t = 0; t < 16; ++t)
            r.promptTokens.push_back((100 * (id + 1) + t) % 64);
        r.maxNewTokens = 3;
        requests.push_back(r);
    }

    SchedulerOptions unbounded;
    unbounded.maxBatch = 1;
    unbounded.decode.cache.blockTokens = 8;
    BatchScheduler unbounded_scheduler(model, withKernels(unbounded, kc));
    const auto baseline = runRequests(unbounded_scheduler, requests);

    SchedulerOptions bounded = unbounded;
    bounded.prefixCache = true;
    const size_t worst = KVCache::blocksForTokens(
        model.config(), bounded.decode.cache,
        16 + requests[0].maxNewTokens - 1);
    // Room for one active request plus part of a cached prefix — never
    // for both a full prefix entry and a fresh admission.
    bounded.kvPoolBlocks = worst + worst / 2;
    BatchScheduler scheduler(model, withKernels(bounded, kc));
    const auto results = runRequests(scheduler, requests);

    EXPECT_GT(scheduler.stats().prefixEvictions, 0);
    ASSERT_EQ(baseline.size(), results.size());
    for (size_t i = 0; i < baseline.size(); ++i)
        EXPECT_EQ(baseline[i].tokens, results[i].tokens) << "id " << i;
    const BlockPoolStats ps = scheduler.poolStats();
    EXPECT_LE(ps.peakCommittedBlocks, ps.capacityBlocks);
    EXPECT_TRUE(scheduler.pool().refcountsConsistent());
}

TEST(PrefixCacheTest, AdmissionOrderIndependencePreserved)
{
    SyntheticModel model(smallDecoder(), 53);
    KernelContext kc(Backend::Serial);
    const std::vector<GenRequest> requests = sharedPromptRequests(16, 5);
    std::vector<GenRequest> reversed(requests.rbegin(), requests.rend());

    SchedulerOptions options;
    options.maxBatch = 2;
    options.decode.cache.blockTokens = 8;
    options.prefixCache = true;

    // Hits differ between orders (who happens to prefill first), but the
    // generated tokens must not: shared pages are bit-identical to
    // privately computed ones.
    BatchScheduler fwd_scheduler(model, withKernels(options, kc));
    const auto forward = runRequests(fwd_scheduler, requests);
    BatchScheduler bwd_scheduler(model, withKernels(options, kc));
    const auto backward = runRequests(bwd_scheduler, reversed);
    SchedulerOptions cold = options;
    cold.prefixCache = false;
    BatchScheduler cold_scheduler(model, withKernels(cold, kc));
    const auto baseline = runRequests(cold_scheduler, requests);

    ASSERT_EQ(baseline.size(), forward.size());
    ASSERT_EQ(baseline.size(), backward.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(baseline[i].tokens, forward[i].tokens) << "id " << i;
        EXPECT_EQ(baseline[i].tokens, backward[i].tokens) << "id " << i;
    }
}

TEST(PrefixCacheTest, DrainLeavesOnlyEntryHeldBlocks)
{
    SyntheticModel model(smallDecoder(), 61);
    KernelContext kc(Backend::Serial);
    SchedulerOptions options;
    options.maxBatch = 2;
    options.decode.cache.blockTokens = 8;
    options.prefixCache = true;
    BatchScheduler scheduler(model, withKernels(options, kc));
    runRequests(scheduler, sharedPromptRequests(16, 4), /*stagger=*/true);

    // After drain every surviving block is pinned by a prefix-cache entry
    // (entries can share blocks, so refs held >= distinct blocks), no
    // reservation leaks, and the refcount audit passes.
    BlockPoolStats ps = scheduler.poolStats();
    EXPECT_GT(ps.allocatedBlocks, 0u);
    EXPECT_LE(ps.allocatedBlocks, scheduler.prefixCache()->blocksHeld());
    EXPECT_EQ(0u, ps.reservedBlocks);
    EXPECT_TRUE(scheduler.pool().refcountsConsistent());

    scheduler.prefixCache()->clear();
    ps = scheduler.poolStats();
    EXPECT_EQ(0u, ps.allocatedBlocks);
    EXPECT_EQ(0u, ps.sharedBlocks);
    EXPECT_EQ(ps.createdBlocks, size_t(ps.freeBlocks));
    EXPECT_TRUE(scheduler.pool().refcountsConsistent());
}

TEST(PrefixCacheTest, BlocksForSuffixAccounting)
{
    const ModelConfig cfg = smallDecoder();
    KVCacheConfig cache_cfg;
    cache_cfg.blockTokens = 8;
    const size_t stores = size_t(cfg.nLayers) * size_t(cfg.kvHeads) * 2;
    // 20 total tokens = 3 blocks/store; a 13-row shared prefix covers one
    // full block (never written) plus a partial tail (COW-replaced, so it
    // still needs a private block).
    EXPECT_EQ(3 * stores,
              KVCache::blocksForTokens(cfg, cache_cfg, 20));
    EXPECT_EQ(2 * stores,
              KVCache::blocksForSuffix(cfg, cache_cfg, 20, 13));
    // Block-aligned prefix: only the blocks past it are private.
    EXPECT_EQ(1 * stores,
              KVCache::blocksForSuffix(cfg, cache_cfg, 20, 16));
    // No prefix degenerates to the full reservation.
    EXPECT_EQ(KVCache::blocksForTokens(cfg, cache_cfg, 20),
              KVCache::blocksForSuffix(cfg, cache_cfg, 20, 0));
}

} // namespace
} // namespace tender
