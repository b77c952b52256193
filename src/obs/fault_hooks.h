/**
 * @file
 * Low-rank fault-injection seam.
 *
 * The chaos engine lives in src/serve/ (rank 5), but the interesting
 * injection points — scene IO, LOD chunk decode, residency budget —
 * live in scene (rank 1) and lod (rank 2), which must not include
 * serve headers.  This header is the seam: rank-1 code asks
 * `faultAt(site, key)` whether a deterministic fault fires here, and
 * the serve-level engine registers itself via `setFaultInjector()`.
 *
 * With no injector installed (the default, and the only state
 * production code ever sees) `faultAt` is a single relaxed atomic
 * load returning "no fault" — zero allocation, zero branches taken.
 *
 * Unlike the recorder this seam has no runtime off switch: fault
 * injection is behavioral, not observational, and the retry paths it
 * exercises run the same code whether or not anything records.
 */

#ifndef GCC3D_OBS_FAULT_HOOKS_H
#define GCC3D_OBS_FAULT_HOOKS_H

#include <cstdint>

namespace gcc3d::obs {

/** Where in the pipeline a fault can fire. */
enum class FaultSite : std::uint8_t {
    SceneRead,       ///< .gsc cache read / validation (scene_io)
    ChunkDecode,     ///< LOD chunk decode (LodScene::loadLeaf)
    WorkerStall,     ///< artificial latency in a scheduler worker
    Disconnect,      ///< session leaves mid-stream
    BudgetPressure,  ///< transient residency-budget squeeze
};

constexpr int kFaultSiteCount = 5;

/** Stable lower-case name, used in event logs and tests. */
const char *faultSiteName(FaultSite site);

/** Verdict for one (site, key) probe. */
struct FaultAction
{
    bool inject = false;      ///< fire the fault here?
    double magnitude = 0.0;   ///< site-specific: stall ms, budget factor…
};

/** Interface the serve-level chaos engine implements.  `at` must be
 *  thread-safe and deterministic in (site, key) for a fixed seed. */
class FaultInjector
{
  public:
    virtual ~FaultInjector() = default;
    virtual FaultAction at(FaultSite site, std::uint64_t key) = 0;
};

/** Install (or clear, with nullptr) the process-wide injector.  The
 *  caller keeps ownership and must clear before destroying it; tests
 *  and gcc3d_serve do this via ChaosEngine's RAII scope. */
void setFaultInjector(FaultInjector *injector);

/** Probe the active injector.  Returns {false, 0} when none is set. */
FaultAction faultAt(FaultSite site, std::uint64_t key);

/** True iff an injector is currently installed (cheap). */
bool faultInjectionActive();

/** Shared bounded-retry policy for fault-hardened load paths.  Kept
 *  here (rank 1) so scene/lod and serve agree on one definition. */
struct RetryPolicy
{
    int max_attempts = 3;      ///< total tries, including the first
    double backoff_ms = 1.0;   ///< sleep before retry i is backoff_ms * 2^(i-1)
    /** Backoff before retry attempt `retry` (1-based); 0 for retry<=0. */
    double delayMs(int retry) const
    {
        if (retry <= 0) return 0.0;
        double d = backoff_ms;
        for (int i = 1; i < retry; ++i) d *= 2.0;
        return d;
    }
};

}  // namespace gcc3d::obs

#endif  // GCC3D_OBS_FAULT_HOOKS_H
