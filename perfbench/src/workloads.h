/**
 * @file
 * The four benchmark workloads and their fixed definitions.
 *
 *  - frame-closed:   closed loop, one client, no scheduler: Lego and
 *                    Train frames through both renderers on a
 *                    4-worker pool.
 *  - serve-light:    open loop, 2 sessions below capacity (EDF).
 *  - serve-overload: open loop, seeded Poisson session arrivals at
 *                    about twice the host's Full-tier capacity (EDF,
 *                    drop-late, degradation ladder).
 *  - sim-batch:      closed loop, offline sweep jobs of the GCC and
 *                    GSCore cycle models over all six presets.
 *
 * Offered rates are absolute numbers fixed here, never derived from a
 * measurement at run time; the seed only shapes the generated inputs
 * (camera order, arrival times).  METRICS.md gives each workload's
 * reason.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"
#include "tracer.h"

namespace perfbench {

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< measured window
    bool trace = false;
};

// ---- Load shape shared by every workload. ----
inline constexpr int kWorkers = 4;          ///< one 4-worker ThreadPool
inline constexpr float kScale = 0.1f;       ///< population scale
inline constexpr int kSetupReps = 3;        ///< setup_s is their median
inline constexpr int kSubview = 128;        ///< gw Compatibility Mode side

// ---- frame-closed ----
inline constexpr int kFrameCameras = 4;     ///< forScene poses per scene

// ---- serve-light ----
inline constexpr double kLightTileFps = 1.25;  ///< Lego tile session
inline constexpr double kLightGwFps = 0.5;     ///< Train gw session
inline constexpr int kLightCameras = 6;        ///< distinct headset poses
inline constexpr float kLightArc = 0.02f;      ///< headset-like path arc
inline constexpr double kLightMaxStartMs = 200.0;

// ---- serve-overload ----
inline constexpr double kOverloadOfferedFps = 16.0;  ///< ~2x Full capacity
inline constexpr double kOverloadSessionFps = 1.0;   ///< per-session target
inline constexpr int kOverloadFrames = 24;           ///< frames per session
inline constexpr int kOverloadCameras = 4;           ///< distinct poses
inline constexpr float kOverloadArc = 0.02f;

// ---- sim-batch ----
inline constexpr int kSimFrames = 2;        ///< forScene frames per preset

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The fixed definition of @p workload, for the result file. */
JsonObject workloadDefinition(const std::string &workload);

/** Run @p opt.workload; throws std::invalid_argument on unknown names. */
RunResult runWorkload(const RunOptions &opt, Tracer &tracer);

RunResult runFrameClosed(const RunOptions &opt, Tracer &tracer);
RunResult runServeLight(const RunOptions &opt, Tracer &tracer);
RunResult runServeOverload(const RunOptions &opt, Tracer &tracer);
RunResult runSimBatch(const RunOptions &opt, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
