/**
 * @file
 * serve-light and serve-overload: open-loop session fleets served by
 * FrameScheduler::run on one 4-worker pool.
 *
 * serve-light runs two sessions below capacity, so every frame is
 * one serial render and two workers sit idle.  serve-overload offers
 * seeded Poisson session arrivals at about twice the Full-tier
 * capacity, so shedding and the degradation ladder set goodput.
 */
#include <map>
#include <memory>
#include <tuple>

#include "common.h"
#include "inputs.h"
#include "oracle.h"
#include "render/splat_soa.h"
#include "scene/scene_presets.h"
#include "serve/frame_scheduler.h"
#include "workloads.h"

namespace perfbench {

using namespace gcc3d;

namespace {

/** A stateless copy of @p s: same scene, renderer and frames. */
Session
referenceSession(const Session &s, SceneHandle handle, int frames)
{
    SessionConfig cfg = s.config();
    cfg.temporal = 0;
    cfg.degrade = false;
    cfg.fps_target = 0.0;
    cfg.start_ms = 0.0;
    cfg.frames = frames;
    return Session(cfg, std::move(handle));
}

/** Render frame 0 of every listed session in parallel, then reset. */
double
warmUp(ThreadPool &pool, const std::vector<Session> &sessions,
       const std::vector<std::size_t> &which, Tracer &tracer)
{
    Span span(tracer, "warmup", 0);
    const double t0 = nowMs();
    std::vector<std::function<void()>> tasks;
    for (const std::size_t i : which)
        tasks.push_back([&sessions, i] { sessions[i].renderFrame(0); });
    runAll(pool, tasks);
    for (const Session &s : sessions)
        s.resetTemporal();
    return nowMs() - t0;
}

/**
 * Serve metrics of both workloads from the report and the books.
 * Latency is what the client sees of a delivered frame:
 * FrameRecord::latency_ms, from the frame's due time to its delivery.
 * Frames never delivered (shed, dropped, unserved) have no latency;
 * goodput_fps and on_time_frac count them as misses.  Tile and gw
 * frame times are the render_ms of exact (Full-tier) frames, split by
 * the session's renderer.  @p window_s is the offered window: every
 * deadline falls inside it.
 */
void
serveMetrics(const ServeReport &report, const std::vector<Session> &fleet,
             const FrameBooks &books, double window_s, RunResult &res)
{
    std::vector<double> latency, tile_ms, gw_ms, wait, render, pre, bin,
        raster, warp;
    double render_sum = 0.0;
    for (std::size_t i = 0; i < report.sessions.size(); ++i) {
        const bool is_tile =
            fleet[i].config().renderer == SessionRenderer::Tile;
        const SessionStats &s = report.sessions[i];
        for (const FrameRecord &f : s.frames) {
            if (!f.rendered)
                continue;
            latency.push_back(f.latency_ms);
            // Frame time is that of an exact frame: under overload the
            // ladder's cheap tiers would split it into two clusters.
            if (f.tier == DegradeTier::Full)
                (is_tile ? tile_ms : gw_ms).push_back(f.render_ms);
            wait.push_back(f.queue_wait_ms);
            render.push_back(f.render_ms);
            render_sum += f.render_ms;
            pre.push_back(f.cost.pre_ms);
            bin.push_back(f.cost.bin_ms);
            raster.push_back(f.cost.raster_ms);
            if (f.tier == DegradeTier::Warp)
                warp.push_back(f.cost.warp_ms);
        }
    }
    auto &e2e = res.end_to_end;
    res.timing(e2e, "latency_ms", latency);
    res.timing(e2e, "tile_frame_ms", tile_ms);
    res.timing(e2e, "gw_frame_ms", gw_ms);
    e2e["goodput_fps"] = static_cast<double>(books.on_time) / window_s;
    e2e["throughput_fps"] = static_cast<double>(books.rendered) / window_s;
    e2e["on_time_frac"] = books.offered > 0
                              ? static_cast<double>(books.on_time) /
                                    static_cast<double>(books.offered)
                              : 0.0;

    auto &pl = res.per_layer;
    res.timing(pl, "serve.queue_wait_ms", wait);
    res.timing(pl, "serve.render_ms", render);
    pl["serve.pre_ms_p50"] = percentile(pre, 50.0);
    pl["serve.bin_ms_p50"] = percentile(bin, 50.0);
    pl["serve.raster_ms_p50"] = percentile(raster, 50.0);
    pl["render.warp_ms_p50"] = percentile(warp, 50.0);
    const double offered = static_cast<double>(books.offered);
    res.ratio("serve.shed_frac",
              static_cast<double>(books.shed + books.dropped), offered);
    int tiers[kDegradeTierCount];
    report.tierTotals(tiers);
    const double rendered = static_cast<double>(books.rendered);
    res.ratio("serve.tier.full_frac",
              tiers[static_cast<int>(DegradeTier::Full)], rendered);
    res.ratio("serve.tier.warp_frac",
              tiers[static_cast<int>(DegradeTier::Warp)], rendered);
    res.ratio("serve.tier.half_res_frac",
              tiers[static_cast<int>(DegradeTier::HalfRes)], rendered);
    pl["serve.degrade_transitions"] = report.degradeTransitions();
    const MissAttribution miss = report.missAttribution();
    const double misses = static_cast<double>(miss.total());
    res.ratio("serve.miss.queue_frac",
              static_cast<double>(
                  miss.counts[static_cast<int>(MissComponent::Queue)]),
              misses);
    res.ratio("serve.miss.raster_frac",
              static_cast<double>(
                  miss.counts[static_cast<int>(MissComponent::Raster)]),
              misses);
    res.ratio("runtime.serve_worker_util", render_sum,
              kWorkers * report.wall_ms);
    std::int64_t reused = 0, tiles = 0, warped = 0;
    for (const SessionStats &s : report.sessions) {
        reused += s.temporal_counters.tiles_reused;
        tiles += s.temporal_counters.tiles_total;
        warped += s.temporal_counters.warped_frames;
    }
    res.ratio("render.temporal.tiles_reused_frac",
              static_cast<double>(reused), static_cast<double>(tiles));
    pl["render.temporal.warped_frames"] = static_cast<double>(warped);

    JsonObject b;
    b.add("offered", books.offered)
        .add("rendered", books.rendered)
        .add("on_time", books.on_time)
        .add("late", books.late)
        .add("shed", books.shed)
        .add("dropped", books.dropped)
        .add("unserved", books.unserved)
        .add("threw", books.threw)
        .add("checked_full_tier", books.checked)
        .add("serve_wall_ms", report.wall_ms);
    res.details.add("frame_books", b);
}

/**
 * Derived spans of every served frame: release -> completion, split
 * into waiting for the session's previous frame (the frame span's
 * self time), queue wait and render, the render split into its stage
 * costs laid end to end.  Positions come from the records, relative
 * to @p start_ms, the tracer time run() was entered; @p parent is the
 * span around run().
 */
void
frameSpans(const ServeReport &report, const std::vector<Session> &fleet,
           double start_ms, int parent, Tracer &tracer)
{
    if (!tracer.enabled())
        return;
    for (std::size_t i = 0; i < report.sessions.size(); ++i) {
        const SessionConfig &cfg = fleet[i].config();
        const double period = fleet[i].periodMs();
        for (const FrameRecord &f : report.sessions[i].frames) {
            if (!f.rendered)
                continue;
            const std::int64_t id =
                static_cast<std::int64_t>(i) * 100000 + f.frame;
            const double release = start_ms + cfg.start_ms + f.frame * period;
            const double done = release + f.latency_ms;
            const double dispatch = done - f.render_ms;
            const int frame = tracer.record("serve.frame", id, parent,
                                            release, done, true);
            tracer.record("serve.queue", id, frame,
                          dispatch - f.queue_wait_ms, dispatch, true);
            const int render = tracer.record("serve.render", id, frame,
                                             dispatch, done, true);
            double at = dispatch;
            const std::pair<const char *, double> stages[] = {
                {"serve.pre", f.cost.pre_ms},
                {"serve.bin", f.cost.bin_ms},
                {"serve.raster", f.cost.raster_ms},
                {"serve.warp", f.cost.warp_ms}};
            for (const auto &[name, ms] : stages) {
                if (ms <= 0.0)
                    continue;
                tracer.record(name, id, render, at, at + ms, true);
                at += ms;
            }
        }
    }
}

/** Run the fleet through the scheduler inside a "serve.run" span. */
ServeReport
serve(const std::vector<Session> &fleet, const SchedulerOptions &options,
      ThreadPool &pool, Tracer &tracer)
{
    Span span(tracer, "serve.run", 0);
    const double start = tracer.nowMs();
    FrameScheduler scheduler(options);
    ServeReport report = scheduler.run(fleet, pool);
    frameSpans(report, fleet, start, span.handle(), tracer);
    return report;
}

/**
 * Set up, serve, check and measure one session fleet.  Slot i of
 * @p plan views Lego/Train (scene_slot % 2) through tile/gw
 * (renderer_slot % 2), sweeping back and forth over @p poses poses of
 * a @p arc arc; tile sessions stream through exact temporal mode.
 */
RunResult
runServe(const RunOptions &opt, Tracer &tracer, const ServePlan &plan,
         int poses, float arc, const SchedulerOptions &options)
{
    RunResult res;
    ThreadPool pool(kWorkers);
    const SceneId ids[2] = {SceneId::Lego, SceneId::Train};
    const SessionRenderer renderers[2] = {SessionRenderer::Tile,
                                          SessionRenderer::GaussianWise};
    const auto scene_of = [&](std::size_t i) {
        return plan.arrivals[i].scene_slot % 2;
    };
    const auto renderer_of = [&](std::size_t i) {
        return plan.arrivals[i].renderer_slot % 2;
    };
    std::vector<std::vector<int>> order;
    for (std::size_t i = 0; i < plan.arrivals.size(); ++i)
        order.push_back(
            pingPong(poses, plan.arrivals[i].frames, plan.phases[i]));

    // ---- Set-up: scenes, headset paths and the session fleet. ----
    std::shared_ptr<const GaussianCloud> clouds[2];
    std::shared_ptr<const Trajectory> paths[2];  // the distinct poses
    std::vector<Session> fleet;
    std::vector<double> setup_ms, generate_ms;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Span setup(tracer, "setup", rep);
        const double t0 = nowMs();
        fleet.clear();
        double gen[2] = {0, 0};
        std::vector<std::function<void()>> tasks;
        for (std::size_t s = 0; s < 2; ++s)
            tasks.push_back([&, s] {
                Span span(tracer, "scene.generate", rep, setup.handle());
                const double g0 = nowMs();
                const SceneSpec spec = scenePreset(ids[s]);
                clouds[s] = std::make_shared<const GaussianCloud>(
                    generateScene(spec, kScale));
                gen[s] = nowMs() - g0;
                paths[s] = std::make_shared<const Trajectory>(
                    Trajectory::forSceneArc(spec, poses, arc));
            });
        runAll(pool, tasks);
        fleet.reserve(plan.arrivals.size());
        for (std::size_t i = 0; i < plan.arrivals.size(); ++i) {
            const serve::SessionArrival &a = plan.arrivals[i];
            SessionConfig cfg;
            cfg.id = static_cast<int>(i);
            cfg.spec = scenePreset(ids[scene_of(i)]);
            cfg.scale = kScale;
            cfg.frames = a.frames;
            cfg.renderer = renderers[renderer_of(i)];
            cfg.gw = gwConfig();
            cfg.fps_target = a.fps_target;
            cfg.start_ms = a.start_ms;
            cfg.temporal = 1;  // tile sessions only; gw ignores it
            cfg.degrade = options.degrade.enabled;
            SceneHandle handle;
            handle.cloud = clouds[scene_of(i)];
            handle.trajectory = std::make_shared<const Trajectory>(
                reorder(*paths[scene_of(i)], order[i]));
            fleet.emplace_back(cfg, handle);
        }
        setup_ms.push_back(nowMs() - t0);
        generate_ms.push_back(gen[0] + gen[1]);
    }
    // The first session of each (scene, renderer) pair present.
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> kinds;
    for (std::size_t i = 0; i < fleet.size(); ++i)
        kinds.emplace(std::make_pair(scene_of(i), renderer_of(i)), i);
    std::vector<std::size_t> firsts;
    for (const auto &[kind, i] : kinds)
        firsts.push_back(i);
    const double warmup_ms = warmUp(pool, fleet, firsts, tracer);

    // ---- Measured window. ----
    const ServeReport report = serve(fleet, options, pool, tracer);
    const double peak_rss = peakRssMb();

    // ---- Reference outputs: each (scene, renderer, pose) once. ----
    std::map<std::tuple<std::size_t, std::size_t, int>, double> ref;
    std::vector<Session> refs;
    for (const std::size_t i : firsts) {
        SceneHandle h;
        h.cloud = clouds[scene_of(i)];
        h.trajectory = paths[scene_of(i)];
        refs.push_back(referenceSession(fleet[i], h, poses));
    }
    std::vector<std::function<void()>> tasks;
    for (std::size_t c = 0; c < refs.size(); ++c)
        for (int k = 0; k < poses; ++k) {
            double *out =
                &ref[{scene_of(firsts[c]), renderer_of(firsts[c]), k}];
            const Session *s = &refs[c];
            tasks.push_back([out, s, k] { *out = s->renderFrame(k); });
        }
    runAll(pool, tasks);
    const FrameBooks books = checkServeReport(
        report,
        [&](std::size_t i, int frame) {
            return ref.at({scene_of(i), renderer_of(i),
                           order.at(i).at(static_cast<std::size_t>(frame))});
        },
        static_cast<std::int64_t>(serve::totalOfferedFrames(plan.arrivals)),
        res);

    res.end_to_end["setup_s"] = setupSeconds(setup_ms, warmup_ms);
    res.end_to_end["peak_rss_mb"] = peak_rss;
    serveMetrics(report, fleet, books, opt.seconds, res);
    res.per_layer["scene.generate_ms"] = percentile(generate_ms, 50.0);
    res.details.add("sessions", static_cast<std::int64_t>(fleet.size()));

    if (opt.trace) {
        // Standalone stage calls a tile session is built from, serial
        // as sessions render, over the Lego poses.
        std::vector<double> pre_ms, soa_ms;
        const TileRendererConfig tc;
        for (const Camera &cam : paths[0]->frames()) {
            PreprocessStats ps;
            std::vector<Splat> splats;
            const double a = nowMs();
            {
                Span span(tracer, "render.preprocess", 0);
                splats = preprocessAll(*clouds[0], cam, ps);
            }
            const double b = nowMs();
            {
                Span span(tracer, "render.soa_build", 0);
                SplatSoA::build(splats, tc.bounding, tc.tile_size,
                                tc.alpha_cutoff, cam.width(), cam.height());
            }
            pre_ms.push_back(b - a);
            soa_ms.push_back(nowMs() - b);
        }
        res.per_layer["render.preprocess_ms"] = percentile(pre_ms, 50.0);
        res.per_layer["render.soa_build_ms"] = percentile(soa_ms, 50.0);
    }
    return res;
}

} // namespace

RunResult
runServeLight(const RunOptions &opt, Tracer &tracer)
{
    SchedulerOptions options;
    options.policy = SchedulerPolicy::Edf;
    options.workers = kWorkers;
    return runServe(opt, tracer, lightPlan(opt.seed, opt.seconds),
                    kLightCameras, kLightArc, options);
}

RunResult
runServeOverload(const RunOptions &opt, Tracer &tracer)
{
    SchedulerOptions options;
    options.policy = SchedulerPolicy::Edf;
    options.workers = kWorkers;
    options.drop_late = true;
    options.degrade.enabled = true;
    return runServe(opt, tracer, overloadPlan(opt.seed, opt.seconds),
                    kOverloadCameras, kOverloadArc, options);
}

} // namespace perfbench
