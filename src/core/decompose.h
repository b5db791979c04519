/**
 * @file
 * Tender channel decomposition: the "power of 2" classification rule
 * (Section III-B, Eq. 3).
 *
 * Channels of an activation chunk are classified into G groups by
 * thresholds TMax / alpha^g. Group g (0-based here; the paper is 1-based)
 * holds channels with CMax in (TMax/alpha^(g+1), TMax/alpha^g] and is
 * quantized with scale
 *
 *     s_g = TMax / (alpha^g * (2^(b-1) - 1))
 *
 * so adjacent group scales differ by exactly alpha. With alpha = 2 the
 * rescaling between groups during reduction is a single 1-bit left shift
 * of the integer accumulator — the runtime requantization of Section III.
 */

#ifndef TENDER_CORE_DECOMPOSE_H
#define TENDER_CORE_DECOMPOSE_H

#include <vector>

#include "core/channel_stats.h"

namespace tender {

/** Algorithm configuration (defaults follow the paper). */
struct TenderConfig
{
    int bits = 8;            ///< quantization width (4 or 8 in the paper)
    int numGroups = 8;       ///< G — decomposition groups
    int alpha = 2;           ///< threshold base; 2 => shift-only rescale
    int rowChunk = 256;      ///< rows per chunk; <= 0 disables chunking
    bool biasSubtract = true;///< per-channel symmetrization
    bool checkOverflow = true;///< verify the 32-bit accumulator never clips
};

/**
 * Per-chunk decomposition metadata: everything the runtime needs to
 * quantize a chunk and stream its channels group-by-group. Produced either
 * dynamically from the chunk itself or offline by the calibrator.
 */
struct ChunkMeta
{
    std::vector<float> bias;    ///< per-channel bias (zeros if disabled)
    std::vector<int> group;     ///< per-channel group id, 0 = largest scale
    std::vector<float> scale;   ///< per-group scale factor (size G)
    /** Channel indices ordered by ascending group id — the compute order
     *  programmed into the Index Buffer (Section IV-D). */
    std::vector<int> order;
    /** groupStart[g]..groupStart[g+1] delimit group g inside order. */
    std::vector<int> groupStart;

    int channels() const { return int(group.size()); }
    int groups() const { return int(scale.size()); }
    int groupSize(int g) const { return groupStart[size_t(g) + 1] -
                                        groupStart[size_t(g)]; }
};

/** Classify one channel: the unique g with TMax/a^(g+1) < cmax <=
 *  TMax/a^g, clamped into [0, G-1]; all-zero channels land in G-1. */
int classifyChannel(float cmax, float tmax, int alpha, int num_groups);

/** Build full metadata from channel statistics. */
ChunkMeta buildChunkMeta(const ChannelStats &stats,
                         const TenderConfig &config);

/**
 * Allocation-light variant for the decode runtime's KV chunk freeze:
 * rebuild `meta` in place (vector capacity reused) from per-channel
 * min/max envelopes. Bit-identical to
 * buildChunkMeta(statsFromMinMax(minv, maxv), config) — asserted in
 * tests/test_fused_attention.cc — but without the per-call stats and
 * metadata allocations, which otherwise serialize the scheduler's
 * concurrent per-request appends on the allocator lock.
 */
void buildChunkMetaInto(ChunkMeta &meta, const float *minv,
                        const float *maxv, int channels,
                        const TenderConfig &config);

/** Stats + metadata in one step for dynamic (uncalibrated) quantization. */
ChunkMeta decomposeChunk(const Matrix &chunk, const TenderConfig &config);

/** Row ranges [start, end) covering rows with the configured chunk size. */
std::vector<std::pair<int, int>> chunkRanges(int rows, int row_chunk);

} // namespace tender

#endif // TENDER_CORE_DECOMPOSE_H
