#include "core/decompose.h"

#include <algorithm>
#include <cmath>

#include "quant/quantizer.h"
#include "util/check.h"

namespace tender {

namespace {

/** Recompute meta.order / meta.groupStart from meta.group. */
void
rebuildMetaOrder(ChunkMeta &meta)
{
    // Counting sort by group id, visiting channels in ascending index per
    // group — stable by construction, so the compute order matches the
    // stable_sort definition exactly (the Index Buffer stream order).
    const int d = meta.channels();
    const int g_count = meta.groups();
    meta.order.resize(size_t(d));
    meta.groupStart.assign(size_t(g_count) + 1, 0);
    for (int c = 0; c < d; ++c)
        ++meta.groupStart[size_t(meta.group[size_t(c)]) + 1];
    for (int g = 0; g < g_count; ++g)
        meta.groupStart[size_t(g) + 1] += meta.groupStart[size_t(g)];
    std::vector<int> cursor(meta.groupStart.begin(),
                            meta.groupStart.end() - 1);
    for (int c = 0; c < d; ++c)
        meta.order[size_t(cursor[size_t(meta.group[size_t(c)])]++)] = c;
    TENDER_CHECK(meta.groupStart.back() == d);
}

/** Effective TMax over channel envelopes, exactly as buildChunkMeta
 *  computes it for either bias mode. */
float
envelopeTmax(const float *minv, const float *maxv, int channels,
             const TenderConfig &config)
{
    float tmax = 0.f;
    for (int c = 0; c < channels; ++c)
        tmax = std::max(tmax, config.biasSubtract
                                  ? envelopeCmax(minv[c], maxv[c])
                                  : envelopeAbsMax(minv[c], maxv[c]));
    return tmax;
}

} // namespace

int
classifyChannel(float cmax, float tmax, int alpha, int num_groups)
{
    TENDER_CHECK(alpha >= 2 && num_groups >= 1);
    TENDER_CHECK(cmax >= 0.f && cmax <= tmax);
    if (tmax <= 0.f)
        return num_groups - 1; // all-zero tensor
    // Walk thresholds t_g = tmax / alpha^g downward; the comparison-based
    // loop avoids log() boundary rounding and costs at most G iterations,
    // mirroring the comparator tree the hardware classifier uses.
    float threshold = tmax;
    for (int g = 0; g < num_groups - 1; ++g) {
        const float next = threshold / float(alpha);
        if (cmax > next)
            return g;
        threshold = next;
    }
    return num_groups - 1;
}

ChunkMeta
buildChunkMeta(const ChannelStats &stats, const TenderConfig &config)
{
    const int d = stats.channels();
    const int g_count = config.numGroups;
    TENDER_REQUIRE(g_count >= 1, "need at least one group");
    TENDER_REQUIRE(config.alpha >= 2, "alpha must be an integer >= 2");

    ChunkMeta meta;
    meta.bias.assign(size_t(d), 0.f);
    meta.group.resize(size_t(d));
    meta.scale.resize(size_t(g_count));

    const float tmax = config.biasSubtract
        ? stats.tmax
        : [&] {
              // Without symmetrization CMax is the raw per-channel absmax.
              float t = 0.f;
              for (int c = 0; c < d; ++c)
                  t = std::max({t, std::abs(stats.minv[size_t(c)]),
                                std::abs(stats.maxv[size_t(c)])});
              return t;
          }();

    // Group scales: s_g = tmax / (alpha^g * k). Dividing the top scale down
    // keeps adjacent ratios *exactly* alpha (exact in FP for alpha = 2).
    const float k = float(maxCode(config.bits));
    float s = tmax > 0.f ? tmax / k : 1.f;
    for (int g = 0; g < g_count; ++g) {
        meta.scale[size_t(g)] = s;
        s /= float(config.alpha);
    }

    for (int c = 0; c < d; ++c) {
        float cmax;
        if (config.biasSubtract) {
            meta.bias[size_t(c)] = stats.bias[size_t(c)];
            cmax = stats.cmax[size_t(c)];
        } else {
            cmax = std::max(std::abs(stats.minv[size_t(c)]),
                            std::abs(stats.maxv[size_t(c)]));
        }
        meta.group[size_t(c)] =
            classifyChannel(cmax, tmax, config.alpha, g_count);
    }

    rebuildMetaOrder(meta);
    return meta;
}

void
buildChunkMetaInto(ChunkMeta &meta, const float *minv, const float *maxv,
                   int channels, const TenderConfig &config)
{
    const int d = channels;
    const int g_count = config.numGroups;
    TENDER_REQUIRE(g_count >= 1, "need at least one group");
    TENDER_REQUIRE(config.alpha >= 2, "alpha must be an integer >= 2");
    meta.bias.resize(size_t(d));
    meta.group.resize(size_t(d));
    meta.scale.resize(size_t(g_count));

    // Identical arithmetic to computeChannelStats + buildChunkMeta: the
    // per-channel bias/CMax and the TMax all come from the shared
    // envelope helpers (channel_stats.h), so the incremental and
    // from-scratch paths cannot drift apart.
    const float tmax = envelopeTmax(minv, maxv, d, config);
    const float k = float(maxCode(config.bits));
    float s = tmax > 0.f ? tmax / k : 1.f;
    for (int g = 0; g < g_count; ++g) {
        meta.scale[size_t(g)] = s;
        s /= float(config.alpha);
    }
    for (int c = 0; c < d; ++c) {
        float cmax;
        if (config.biasSubtract) {
            meta.bias[size_t(c)] = envelopeBias(minv[c], maxv[c]);
            cmax = envelopeCmax(minv[c], maxv[c]);
        } else {
            meta.bias[size_t(c)] = 0.f;
            cmax = envelopeAbsMax(minv[c], maxv[c]);
        }
        meta.group[size_t(c)] =
            classifyChannel(cmax, tmax, config.alpha, g_count);
    }
    rebuildMetaOrder(meta);
}

ChunkMeta
decomposeChunk(const Matrix &chunk, const TenderConfig &config)
{
    return buildChunkMeta(computeChannelStats(chunk), config);
}

std::vector<std::pair<int, int>>
chunkRanges(int rows, int row_chunk)
{
    std::vector<std::pair<int, int>> ranges;
    if (row_chunk <= 0 || row_chunk >= rows) {
        ranges.emplace_back(0, rows);
        return ranges;
    }
    for (int r = 0; r < rows; r += row_chunk)
        ranges.emplace_back(r, std::min(r + row_chunk, rows));
    return ranges;
}

} // namespace tender
