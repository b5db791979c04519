/**
 * @file
 * Per-channel statistics of an activation chunk: min/max, the channel bias
 * (Section III-B step 1), and the post-bias channel absolute maximum
 * (CMax) that drives the power-of-two classification.
 */

#ifndef TENDER_CORE_CHANNEL_STATS_H
#define TENDER_CORE_CHANNEL_STATS_H

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/matrix.h"

namespace tender {

/** Symmetrization bias of one channel envelope: (max + min) / 2. The
 *  single definition shared by the full stats pass and the KV cache's
 *  chunk freeze (buildChunkMetaInto) — both must derive bit-identical
 *  metadata from the same envelopes. */
inline float
envelopeBias(float minv, float maxv)
{
    return 0.5f * (maxv + minv);
}

/** Post-bias |.|max of one channel envelope: (max - min) / 2. */
inline float
envelopeCmax(float minv, float maxv)
{
    return 0.5f * (maxv - minv);
}

/** Raw |.|max of one channel envelope (no symmetrization). */
inline float
envelopeAbsMax(float minv, float maxv)
{
    return std::max(std::abs(minv), std::abs(maxv));
}

/** Channel-wise statistics for one row chunk of an activation tensor. */
struct ChannelStats
{
    std::vector<float> minv;  ///< per-channel minimum
    std::vector<float> maxv;  ///< per-channel maximum
    std::vector<float> bias;  ///< (max + min) / 2 — symmetrization offset
    std::vector<float> cmax;  ///< post-bias |.|max: (max - min) / 2
    float tmax = 0.f;         ///< max over cmax — the tensor absmax

    int channels() const { return int(cmax.size()); }
};

/** Compute stats for all channels (columns) of chunk. */
ChannelStats computeChannelStats(const Matrix &chunk);

/**
 * Build stats from per-channel min/max envelopes. Min/max accumulation is
 * order-independent and exact, so a caller that accumulates envelopes
 * itself gets stats bit-identical to computeChannelStats over the same
 * rows.
 */
ChannelStats statsFromMinMax(std::vector<float> minv,
                             std::vector<float> maxv);

/**
 * Merge stats from another batch of the same shape (calibration): extends
 * min/max envelopes and recomputes bias/cmax/tmax.
 */
void mergeChannelStats(ChannelStats &into, const ChannelStats &other);

} // namespace tender

#endif // TENDER_CORE_CHANNEL_STATS_H
