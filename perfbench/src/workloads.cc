#include "workloads.h"

#include <stdexcept>

namespace perfbench {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "frame-closed", "serve-light", "serve-overload", "sim-batch"};
    return names;
}

JsonObject
workloadDefinition(const std::string &workload)
{
    JsonObject d;
    d.add("name", workload)
        .add("workers", kWorkers)
        .add("scale", static_cast<double>(kScale))
        .add("setup_reps", kSetupReps);
    if (workload == "frame-closed") {
        d.add("loop", "closed, 1 client, no scheduler")
            .add("scenes", "Lego,Train")
            .add("renderers", "tile,gw (Cmode)")
            .add("gw_subview", kSubview)
            .add("cameras_per_scene", kFrameCameras)
            .add("camera_path", "Trajectory::forScene, seeded phase");
    } else if (workload == "serve-light") {
        d.add("loop", "open, 2 sessions, EDF")
            .add("tile_session", "Lego, temporal=1")
            .add("tile_fps", kLightTileFps)
            .add("gw_session", "Train, Cmode")
            .add("gw_fps", kLightGwFps)
            .add("gw_subview", kSubview)
            .add("distinct_poses", kLightCameras)
            .add("traj_arc", static_cast<double>(kLightArc))
            .add("camera_path", "forSceneArc poses swept back and forth, "
                                "seeded phase")
            .add("max_start_ms", kLightMaxStartMs);
    } else if (workload == "serve-overload") {
        d.add("loop", "open, seeded Poisson session arrivals, EDF, "
                      "drop-late, degradation ladder")
            .add("offered_fps", kOverloadOfferedFps)
            .add("session_fps", kOverloadSessionFps)
            .add("frames_per_session", kOverloadFrames)
            .add("distinct_poses", kOverloadCameras)
            .add("traj_arc", static_cast<double>(kOverloadArc))
            .add("camera_path", "forSceneArc poses swept back and forth, "
                                "seeded phase per session")
            .add("arrivals", "count fixed by offered_fps over the window "
                             "less one period; time wraps round that span, "
                             "so the offered rate is steady from t=0")
            .add("mix", "arrival i: scene i%2 of Lego,Train; renderer "
                        "(i/2)%2 of tile (temporal=1),gw (Cmode)")
            .add("gw_subview", kSubview);
    } else if (workload == "sim-batch") {
        d.add("loop", "closed, 4 clients, one sweep job each")
            .add("scenes", "all six presets")
            .add("backends", "gcc,gscore")
            .add("frames_per_scene", kSimFrames)
            .add("job_order", "seeded permutation, cycled");
    }
    return d;
}

RunResult
runWorkload(const RunOptions &opt, Tracer &tracer)
{
    if (opt.workload == "frame-closed")
        return runFrameClosed(opt, tracer);
    if (opt.workload == "serve-light")
        return runServeLight(opt, tracer);
    if (opt.workload == "serve-overload")
        return runServeOverload(opt, tracer);
    if (opt.workload == "sim-batch")
        return runSimBatch(opt, tracer);
    throw std::invalid_argument("unknown workload: " + opt.workload);
}

} // namespace perfbench
