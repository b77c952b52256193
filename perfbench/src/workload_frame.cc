/**
 * @file
 * frame-closed: one client renders Lego and Train frames back to back
 * through TileRenderer::render and GaussianWiseRenderer::render
 * (Compatibility Mode) on a 4-worker pool.  No scheduler, temporal
 * cache or cycle model is involved.
 */
#include <map>
#include <string>

#include "common.h"
#include "inputs.h"
#include "oracle.h"
#include "render/gaussian_wise_renderer.h"
#include "render/splat_soa.h"
#include "render/tile_renderer.h"
#include "runtime/sweep_runner.h"
#include "scene/scene_presets.h"
#include "workloads.h"

namespace perfbench {

using namespace gcc3d;

namespace {

struct SceneState
{
    SceneSpec spec;
    GaussianCloud cloud;
    std::vector<Camera> cameras;
};

/** One pooled frame: both render calls and what they returned. */
struct FrameSample
{
    int scene = 0;
    int camera = 0;
    double tile_ms = 0.0;
    double gw_ms = 0.0;
    double tile_checksum = 0.0;
    double gw_checksum = 0.0;
    StageTimes tile_stage;
    StageTimes gw_stage;
    std::int64_t kv_pairs = 0;
    std::int64_t tile_alpha = 0;
    std::int64_t gw_alpha = 0;
};

/** Reference output and serial cost of one (scene, camera, renderer). */
struct Reference
{
    double checksum = 0.0;
    double serial_ms = 0.0;
    StandardFlowStats tile;
    GaussianWiseStats gw;
};

std::string
key(const SceneState &s, int camera, const char *renderer)
{
    return s.spec.name + "/" + renderer + "/c" + std::to_string(camera);
}

} // namespace

RunResult
runFrameClosed(const RunOptions &opt, Tracer &tracer)
{
    RunResult res;
    ThreadPool pool(kWorkers);
    const TileRenderer tile;
    const GaussianWiseRenderer gw(gwConfig());
    const std::vector<SceneId> ids = {SceneId::Lego, SceneId::Train};

    // ---- Set-up: generate both scenes, kSetupReps times. ----
    std::vector<SceneState> scenes(ids.size());
    std::vector<double> setup_ms, generate_ms;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Span setup(tracer, "setup", rep);
        const double t0 = nowMs();
        std::vector<double> gen(ids.size(), 0.0);
        std::vector<std::function<void()>> tasks;
        for (std::size_t s = 0; s < ids.size(); ++s)
            tasks.push_back([&, s] {
                Span span(tracer, "scene.generate", rep, setup.handle());
                const double g0 = nowMs();
                scenes[s].spec = scenePreset(ids[s]);
                scenes[s].cloud = generateScene(scenes[s].spec, kScale);
                gen[s] = nowMs() - g0;
                scenes[s].cameras = rotatedCameras(
                    Trajectory::forScene(scenes[s].spec, kFrameCameras),
                    opt.seed, s);
            });
        runAll(pool, tasks);
        setup_ms.push_back(nowMs() - t0);
        generate_ms.push_back(gen[0] + gen[1]);
    }
    double warmup_ms = 0.0;
    {
        Span warm(tracer, "warmup", 0);
        const double t0 = nowMs();
        for (const SceneState &s : scenes) {
            StandardFlowStats ts;
            GaussianWiseStats gs;
            tile.render(s.cloud, s.cameras[0], ts, &pool);
            gw.render(s.cloud, s.cameras[0], gs, &pool);
        }
        warmup_ms = nowMs() - t0;
    }

    // ---- Measured window: closed loop, one frame at a time. ----
    std::vector<FrameSample> samples;
    const double start = nowMs();
    const double deadline = start + opt.seconds * 1000.0;
    for (int i = 0; nowMs() < deadline; ++i) {
        FrameSample f;
        f.scene = i % 2;
        f.camera = (i / 2) % kFrameCameras;
        const SceneState &s = scenes[static_cast<std::size_t>(f.scene)];
        const Camera &cam = s.cameras[static_cast<std::size_t>(f.camera)];
        Span frame(tracer, "frame", i);
        StandardFlowStats ts;
        GaussianWiseStats gs;
        const double t0 = nowMs();
        Image tile_img, gw_img;
        {
            Span span(tracer, "render.tile", i, frame.handle());
            tile_img = tile.render(s.cloud, cam, ts, &pool);
            span.count("kv_pairs", static_cast<double>(ts.kv_pairs));
            span.count("alpha_evals", static_cast<double>(ts.alpha_evals));
        }
        const double t1 = nowMs();
        {
            Span span(tracer, "render.gw", i, frame.handle());
            gw_img = gw.render(s.cloud, cam, gs, &pool);
            span.count("alpha_evals", static_cast<double>(gs.alpha_evals));
            span.count("groups_processed",
                       static_cast<double>(gs.groups_processed));
        }
        const double t2 = nowMs();
        f.tile_ms = t1 - t0;
        f.gw_ms = t2 - t1;
        f.tile_checksum = imageChecksum(tile_img);
        f.gw_checksum = imageChecksum(gw_img);
        f.tile_stage = ts.stage;
        f.gw_stage = gs.stage;
        f.kv_pairs = ts.kv_pairs;
        f.tile_alpha = ts.alpha_evals;
        f.gw_alpha = gs.alpha_evals;
        samples.push_back(f);
    }
    const double elapsed_s = (nowMs() - start) / 1000.0;
    const double peak_rss = peakRssMb();

    // ---- Reference outputs: a serial (null pool) render per key. ----
    // One after another, so each one's serial time is measured too
    // (runtime.*.pool_speedup).
    std::map<std::string, Reference> refs;
    for (const SceneState &s : scenes)
        for (int c = 0; c < kFrameCameras; ++c) {
            const Camera &cam = s.cameras[static_cast<std::size_t>(c)];
            {
                Span span(tracer, "reference.tile", 0);
                Reference &r = refs[key(s, c, "tile")];
                const double t0 = nowMs();
                r.checksum = imageChecksum(tile.render(s.cloud, cam, r.tile));
                r.serial_ms = nowMs() - t0;
            }
            {
                Span span(tracer, "reference.gw", 0);
                Reference &r = refs[key(s, c, "gw")];
                const double t0 = nowMs();
                r.checksum = imageChecksum(gw.render(s.cloud, cam, r.gw));
                r.serial_ms = nowMs() - t0;
            }
        }

    std::vector<ChecksumRecord> records;
    for (const FrameSample &f : samples) {
        const SceneState &s = scenes[static_cast<std::size_t>(f.scene)];
        records.push_back({key(s, f.camera, "tile"), f.tile_checksum});
        records.push_back({key(s, f.camera, "gw"), f.gw_checksum});
    }
    std::map<std::string, double> oracle;
    for (const auto &[name, r] : refs)
        oracle[name] = r.checksum;
    checkChecksums(records, oracle, res);

    // ---- End-to-end metrics. ----
    std::vector<double> tile_ms, gw_ms, latency_ms;
    for (const FrameSample &f : samples) {
        tile_ms.push_back(f.tile_ms);
        gw_ms.push_back(f.gw_ms);
        latency_ms.push_back(f.tile_ms + f.gw_ms);
    }
    auto &e2e = res.end_to_end;
    e2e["setup_s"] = setupSeconds(setup_ms, warmup_ms);
    e2e["peak_rss_mb"] = peak_rss;
    res.timing(e2e, "tile_frame_ms", tile_ms);
    res.timing(e2e, "gw_frame_ms", gw_ms);
    res.timing(e2e, "latency_ms", latency_ms);
    const double fps = static_cast<double>(samples.size()) / elapsed_s;
    e2e["goodput_fps"] = fps;      // closed loop: every frame is on time
    e2e["throughput_fps"] = fps;
    e2e["on_time_frac"] = 1.0;

    // ---- Per-layer metrics. ----
    auto &pl = res.per_layer;
    pl["scene.generate_ms"] = percentile(generate_ms, 50.0);
    std::vector<double> v[6];
    double bin_ms = 0.0, raster_ms = 0.0, gw_raster_ms = 0.0;
    double kv = 0.0, alpha = 0.0, gw_alpha = 0.0;
    for (const FrameSample &f : samples) {
        v[0].push_back(f.tile_stage.preprocess_ms);
        v[1].push_back(f.tile_stage.binning_ms);
        v[2].push_back(f.tile_stage.raster_ms);
        v[3].push_back(f.gw_stage.preprocess_ms);
        v[4].push_back(f.gw_stage.binning_ms);
        v[5].push_back(f.gw_stage.raster_ms);
        bin_ms += f.tile_stage.binning_ms;
        raster_ms += f.tile_stage.raster_ms;
        gw_raster_ms += f.gw_stage.raster_ms;
        kv += static_cast<double>(f.kv_pairs);
        alpha += static_cast<double>(f.tile_alpha);
        gw_alpha += static_cast<double>(f.gw_alpha);
    }
    const char *stage_names[6] = {"render.tile.pre_ms", "render.tile.bin_ms",
                                  "render.tile.raster_ms", "render.gw.pre_ms",
                                  "render.gw.bin_ms", "render.gw.raster_ms"};
    for (int k = 0; k < 6; ++k)
        pl[stage_names[k]] = percentile(v[k], 50.0);
    res.ratio("render.tile.ns_per_kv_pair", bin_ms * 1e6, kv);
    res.ratio("render.tile.ns_per_alpha_eval", raster_ms * 1e6, alpha);
    res.ratio("render.gw.ns_per_alpha_eval", gw_raster_ms * 1e6, gw_alpha);

    // Exact work counts: one serial render per distinct key.
    StandardFlowStats t;
    GaussianWiseStats g;
    std::int64_t sh_cand = 0;
    for (const auto &[name, r] : refs) {
        t.kv_pairs += r.tile.kv_pairs;
        t.sorted_keys += r.tile.sorted_keys;
        t.tile_fetches += r.tile.tile_fetches;
        t.fetched_gaussians += r.tile.fetched_gaussians;
        t.alpha_evals += r.tile.alpha_evals;
        t.blend_ops += r.tile.blend_ops;
        g.stage2_invocations += r.gw.stage2_invocations;
        g.sh_eval_invocations += r.gw.sh_eval_invocations;
        g.sh_skip_invocations += r.gw.sh_skip_invocations;
        g.bin_records += r.gw.bin_records;
        g.alpha_evals += r.gw.alpha_evals;
        g.blend_ops += r.gw.blend_ops;
        g.groups += r.gw.groups;
        g.groups_processed += r.gw.groups_processed;
        sh_cand += r.gw.sh_eval_invocations + r.gw.sh_skip_invocations;
    }
    const auto d = [](std::int64_t x) { return static_cast<double>(x); };
    pl["render.tile.kv_pairs"] = d(t.kv_pairs);
    pl["render.tile.sorted_keys"] = d(t.sorted_keys);
    pl["render.tile.tile_fetches"] = d(t.tile_fetches);
    pl["render.tile.alpha_evals"] = d(t.alpha_evals);
    pl["render.tile.blend_ops"] = d(t.blend_ops);
    pl["render.gw.stage2_invocations"] = d(g.stage2_invocations);
    pl["render.gw.sh_eval_invocations"] = d(g.sh_eval_invocations);
    pl["render.gw.bin_records"] = d(g.bin_records);
    pl["render.gw.alpha_evals"] = d(g.alpha_evals);
    pl["render.gw.blend_ops"] = d(g.blend_ops);
    res.ratio("render.tile.loads_per_gaussian", d(t.tile_fetches),
              d(t.fetched_gaussians));
    res.ratio("render.tile.blend_per_alpha", d(t.blend_ops), d(t.alpha_evals));
    res.ratio("render.gw.groups_processed_frac", d(g.groups_processed),
              d(g.groups));
    res.ratio("render.gw.sh_skip_frac", d(g.sh_skip_invocations), d(sh_cand));
    res.ratio("render.gw.blend_per_alpha", d(g.blend_ops), d(g.alpha_evals));

    if (opt.trace) {
        // Pool speedup: serial reference time over the median pooled
        // time of the same frames.
        std::map<std::string, std::vector<double>> pooled;
        for (const FrameSample &f : samples) {
            const SceneState &s = scenes[static_cast<std::size_t>(f.scene)];
            pooled[key(s, f.camera, "tile")].push_back(f.tile_ms);
            pooled[key(s, f.camera, "gw")].push_back(f.gw_ms);
        }
        double serial[2] = {0, 0}, par[2] = {0, 0};
        for (const auto &[name, r] : refs) {
            const auto it = pooled.find(name);
            if (it == pooled.end())
                continue;
            const int k = name.find("/gw/") != std::string::npos ? 1 : 0;
            serial[k] += r.serial_ms;
            par[k] += percentile(it->second, 50.0);
        }
        res.ratio("runtime.tile.pool_speedup", serial[0], par[0]);
        res.ratio("runtime.gw.pool_speedup", serial[1], par[1]);

        // The standalone stage calls the tile renderer is built from.
        std::vector<double> pre_ms, soa_ms;
        const TileRendererConfig &tc = tile.config();
        for (const SceneState &s : scenes)
            for (const Camera &cam : s.cameras) {
                PreprocessStats ps;
                std::vector<Splat> splats;
                double a = nowMs();
                {
                    Span span(tracer, "render.preprocess", 0);
                    splats = preprocessAll(s.cloud, cam, ps, &pool);
                    span.count("projected", static_cast<double>(ps.projected));
                }
                double b = nowMs();
                {
                    Span span(tracer, "render.soa_build", 0);
                    SplatSoA::build(splats, tc.bounding, tc.tile_size,
                                    tc.alpha_cutoff, cam.width(), cam.height());
                }
                pre_ms.push_back(b - a);
                soa_ms.push_back(nowMs() - b);
            }
        pl["render.preprocess_ms"] = percentile(pre_ms, 50.0);
        pl["render.soa_build_ms"] = percentile(soa_ms, 50.0);
    }

    res.details.add("frames", static_cast<std::int64_t>(samples.size()))
        .add("measured_s", elapsed_s);
    return res;
}

} // namespace perfbench
