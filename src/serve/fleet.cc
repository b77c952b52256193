#include "serve/fleet.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/perf_recorder.h"

namespace gcc3d {

void
validateFleetSpec(const FleetSpec &spec)
{
    if (spec.sessions < 1)
        throw std::invalid_argument("fleet needs at least one session");
    if (spec.frames < 1)
        throw std::invalid_argument("fleet needs at least one frame");
    if (spec.scenes.empty())
        throw std::invalid_argument("fleet needs at least one scene");
    if (spec.renderers.empty())
        throw std::invalid_argument("fleet needs at least one renderer");
    // Degenerate FPS targets (negative, NaN, inf) would flow into the
    // EDF release/deadline arithmetic as garbage periods; reject them
    // here, before any scene work.
    if (!(spec.fps_target >= 0.0) || !std::isfinite(spec.fps_target))
        throw std::invalid_argument(
            "fleet fps_target must be finite and >= 0");
    if (!(spec.scale > 0.0f) || spec.scale > 1.0f)
        throw std::invalid_argument("fleet scale must be in (0, 1]");
    if (spec.degrade &&
        (!(spec.degrade_render_scale > 0.0f) ||
         spec.degrade_render_scale >= 1.0f ||
         !(spec.degrade_tau_factor >= 1.0f)))
        throw std::invalid_argument("fleet degrade knobs out of range");
}

std::vector<Session>
buildFleet(const FleetSpec &spec, SceneRegistry &registry)
{
    validateFleetSpec(spec);

    std::vector<Session> fleet;
    fleet.reserve(static_cast<std::size_t>(spec.sessions));
    for (int i = 0; i < spec.sessions; ++i) {
        SessionConfig cfg;
        cfg.id = i;
        cfg.spec = spec.scenes[static_cast<std::size_t>(i) %
                               spec.scenes.size()];
        cfg.scale = spec.scale;
        cfg.frames = spec.frames;
        cfg.renderer = spec.renderers[static_cast<std::size_t>(i) %
                                      spec.renderers.size()];
        cfg.tile = spec.tile;
        cfg.gw = spec.gw;
        cfg.fps_target = spec.fps_target;
        cfg.lod_cut = spec.lod_cut;
        cfg.temporal = spec.temporal;
        cfg.degrade = spec.degrade;
        cfg.degrade_render_scale = spec.degrade_render_scale;
        cfg.degrade_tau_factor = spec.degrade_tau_factor;
        SceneHandle handle =
            spec.lod_path.empty()
                ? registry.acquire(cfg.spec, cfg.scale, cfg.frames,
                                   spec.traj_arc)
                : registry.acquireLod(spec.lod_path,
                                      spec.lod_budget_bytes, cfg.spec,
                                      cfg.frames, spec.traj_arc);
        fleet.emplace_back(std::move(cfg), std::move(handle));
    }
    return fleet;
}

std::vector<Session>
buildOpenLoopFleet(const FleetSpec &spec,
                   const std::vector<serve::SessionArrival> &arrivals,
                   SceneRegistry &registry)
{
    if (spec.scenes.empty())
        throw std::invalid_argument("fleet needs at least one scene");
    if (spec.renderers.empty())
        throw std::invalid_argument("fleet needs at least one renderer");

    // One trajectory (per scene) covering the longest session keeps
    // the registry's dedup effective across heterogeneous lifetimes.
    int max_frames = 1;
    for (const serve::SessionArrival &a : arrivals)
        max_frames = std::max(max_frames, a.frames);

    std::vector<Session> fleet;
    fleet.reserve(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const serve::SessionArrival &a = arrivals[i];
        SessionConfig cfg;
        cfg.id = static_cast<int>(i);
        cfg.spec = spec.scenes[a.scene_slot % spec.scenes.size()];
        cfg.scale = spec.scale;
        cfg.frames = std::max(1, a.frames);
        cfg.renderer =
            spec.renderers[a.renderer_slot % spec.renderers.size()];
        cfg.tile = spec.tile;
        cfg.gw = spec.gw;
        cfg.fps_target = a.fps_target;
        cfg.start_ms = a.start_ms;
        cfg.lod_cut = spec.lod_cut;
        cfg.temporal = spec.temporal;
        cfg.degrade = spec.degrade;
        cfg.degrade_render_scale = spec.degrade_render_scale;
        cfg.degrade_tau_factor = spec.degrade_tau_factor;
        SceneHandle handle =
            spec.lod_path.empty()
                ? registry.acquire(cfg.spec, cfg.scale, max_frames,
                                   spec.traj_arc)
                : registry.acquireLod(spec.lod_path,
                                      spec.lod_budget_bytes, cfg.spec,
                                      max_frames, spec.traj_arc);
        fleet.emplace_back(std::move(cfg), std::move(handle));
    }
    return fleet;
}

SerialBaseline
renderSerial(const std::vector<Session> &sessions)
{
    SerialBaseline base;
    base.checksums.reserve(sessions.size());
    // Fresh temporal state for this replay: fleets are reused across
    // baseline and policy runs, and every run must see the same frame
    // sequence to reproduce the same checksums.
    for (const Session &s : sessions)
        s.resetTemporal();
    // wall_ms feeds fleet_fps (a report field, not a perf sample), so
    // it reads the behavioral clock — real with the recorder off.
    const MonoTime start = obs::tickNow();
    int rendered = 0;
    for (const Session &s : sessions) {
        double sum = 0.0;
        for (int f = 0; f < s.frameCount(); ++f) {
            sum += s.renderFrame(f);
            ++rendered;
        }
        base.checksums.push_back(sum);
    }
    base.wall_ms = msBetween(start, obs::tickNow());
    obs::PerfRecorder::global().addSample(obs::Stage::Job, base.wall_ms);
    base.fleet_fps =
        base.wall_ms > 0.0 ? rendered * 1000.0 / base.wall_ms : 0.0;
    return base;
}

} // namespace gcc3d
