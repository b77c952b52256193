/**
 * @file
 * SLO miss attribution: names the dominant cost component of every
 * missed deadline, so "p99 got worse" decomposes into "queue wait
 * under overload" vs "raster got slower" vs "LOD decode stalls"
 * without opening a trace.
 *
 * Classification is deliberately simple and total: a dropped frame is
 * pure queueing (it never rendered); a rendered-but-late frame is
 * charged to the largest entry of {queue wait, preprocess, binning,
 * raster, warp, decode}.  Unknown only appears when every component
 * measured <= 0, and the serve report tracks the named fraction so a
 * regression to "unknown" is visible.
 */

#ifndef GCC3D_SERVE_SLO_ATTRIBUTION_H
#define GCC3D_SERVE_SLO_ATTRIBUTION_H

#include <array>
#include <cstdint>
#include <string>

#include "serve/session.h"

namespace gcc3d {

/** Dominant cost component of a missed deadline. */
enum class MissComponent
{
    Queue = 0,   ///< scheduler queue wait (includes dropped frames)
    Preprocess,  ///< projection/SH/culling
    Binning,     ///< tile / sub-view binning
    Raster,      ///< rasterization
    Warp,        ///< temporal reprojection
    Decode,      ///< LOD cut build
    Unknown,     ///< no component measured > 0
};

inline constexpr int kMissComponentCount =
    static_cast<int>(MissComponent::Unknown) + 1;

/** Stable lower-case component name ("queue", "pre", "bin", ...). */
const char *missComponentName(MissComponent component);

/** Classify one missed frame (see file comment for the rule). */
MissComponent classifyMiss(const FrameRecord &rec);

/** Per-component miss counts; rolls up per session and fleet-wide. */
struct MissAttribution
{
    std::array<std::int64_t, kMissComponentCount> counts{};

    void
    add(MissComponent component)
    {
        ++counts[static_cast<std::size_t>(component)];
    }

    void
    merge(const MissAttribution &other)
    {
        for (int i = 0; i < kMissComponentCount; ++i)
            counts[static_cast<std::size_t>(i)] +=
                other.counts[static_cast<std::size_t>(i)];
    }

    std::int64_t total() const;

    /** Fraction of misses attributed to a real component (not
     *  Unknown); 1.0 when there are no misses at all. */
    double namedFraction() const;

    /** {"queue": N, "pre": N, ..., "unknown": N, "named_fraction": f} */
    std::string toJson() const;
};

} // namespace gcc3d

#endif // GCC3D_SERVE_SLO_ATTRIBUTION_H
