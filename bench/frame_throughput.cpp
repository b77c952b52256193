/**
 * @file
 * Frame-throughput benchmark of the functional renderers (host-side
 * wall clock, no google-benchmark dependency).
 *
 * Renders preset scenes along their natural camera trajectories
 * through the standard tile-wise renderer and the Gaussian-wise
 * renderer (in Compatibility Mode, --subview), reports ms/frame and
 * frames/s percentiles through the ResultTable aggregation machinery,
 * and writes `BENCH_frame.json` so the performance trajectory is
 * tracked across PRs.
 *
 * With --reference the retained scalar implementations
 * (TileRenderer::renderReference / GaussianWiseRenderer::
 * renderReference) are also timed and the per-scene speedup of each
 * optimized path is reported; with --threads N,... every selected
 * renderer is additionally timed at each worker count (tile: parallel
 * preprocess + per-tile rasterization; gw: parallel shared projection
 * pass + Cmode sub-views).  All paths are bit-identical, and the
 * benchmark cross-checks their image checksums.
 *
 * Every variant also reports a per-stage wall-clock breakdown
 * (preprocess / binning / rasterize, from StageTimes) so
 * BENCH_frame.json records where the cycles went.  Every path
 * evaluates alpha with simdExp (gsmath/ellipse.h splatAlpha); its
 * >= 55 dB accuracy contract against std::exp is a unit test, not a
 * bench variant.
 *
 * With --trajectory a temporal-coherence section replays a slow-orbit
 * held camera stream (forSceneArc(--arc) with each pose held --hold
 * frames, --traj-frames distinct poses) through three tile pipelines:
 * cold stateless rendering, exact temporal mode (--temporal ignored;
 * every frame exact, incremental binning + dirty-tile reuse,
 * checksum-verified bit-identical to cold), and warp mode (every
 * --temporal-th frame exact, the rest reprojected, >= 40 dB PSNR
 * against cold enforced per frame).  Contract violations fail the
 * run; speedups and TemporalCounters go to the "temporal" JSON
 * section.
 *
 * Run with --help for the flags; GCC3D_SCALE sets the default --scale.
 * --workers > 1 runs the base tile/gw variants on a thread pool (the
 * images and stats do not depend on it).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "obs/trace_export.h"
#include "render/gaussian_wise_renderer.h"
#include "render/metrics.h"
#include "render/tile_renderer.h"
#include "runtime/flags.h"
#include "runtime/thread_pool.h"
#include "scene/trajectory.h"

namespace {

using namespace gcc3d;
using gcc3d::bench::nowMsSince;
using gcc3d::bench::splitList;

/** What one timed variant runs. */
struct Variant
{
    std::string name;     ///< row label, e.g. "gw-t4"
    std::string family;   ///< checksum group (tile/gw)
    bool reference = false;
    ThreadPool *pool = nullptr;
    int threads = 0;      ///< 0 = not part of the thread sweep
    double check = 0.0;   ///< checksum summed over all timed frames
    StageTimes stage_sum{}; ///< per-stage ms summed over timed frames
    std::size_t stage_samples = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string scenes_arg = "palace,lego,train";
    std::string renderers_arg = "tile,gw";
    std::vector<int> thread_counts;
    std::string out_path = "BENCH_frame.json";
    std::string trace_path;
    std::string metrics_path;
    int frames = 2;
    int reps = 3;
    int workers = 1;
    int subview = 128;
    int temporal_every = 4;
    int hold = 2;
    int traj_frames = 8;
    double traj_arc = 0.001;
    bool trajectory = false;
    bool reference = false;
    float scale = bench::benchScale();

    flags::Parser cli;
    cli.add("--scenes LIST", &scenes_arg,
            "comma-separated scene names or 'all'");
    cli.add("--frames N", &frames, "trajectory frames per scene").min(1);
    cli.add("--reps N", &reps, "timed repetitions per frame").min(1);
    cli.add("--renderers LIST", &renderers_arg, "subset of tile,gw");
    cli.add("--reference", &reference,
            "also time the scalar reference paths and report each "
            "optimized speedup");
    cli.add("--threads LIST", &thread_counts,
            "worker-count scaling sweep, e.g. 1,2,4,8 (adds a "
            "<renderer>-tN variant per count)")
        .min(1).max(bench::kMaxWorkers);
    cli.add("--subview N", &subview,
            "Gaussian-wise Cmode sub-view side; 0 = full view")
        .min(0);
    cli.add("--workers N", &workers,
            "pool for the base tile/gw variants; < 2 = serial")
        .min(0).max(bench::kMaxWorkers);
    cli.add("--trajectory", &trajectory,
            "temporal-coherence section: cold vs exact temporal vs warp "
            "over a slow held camera stream (tile renderer only)");
    cli.add("--temporal K", &temporal_every,
            "warp mode renders every K-th frame exactly")
        .min(2);
    cli.add("--hold H", &hold,
            "display frames per camera pose in the stream")
        .min(1);
    cli.add("--arc F", &traj_arc,
            "fraction of the natural camera path the stream covers")
        .above(0).max(1);
    cli.add("--traj-frames N", &traj_frames,
            "distinct camera poses in the stream")
        .min(2);
    cli.add("--scale F", &scale,
            "population scale; GCC3D_SCALE sets the default")
        .above(0).max(1);
    cli.add("--out FILE", &out_path, "JSON output path; '-' disables");
    cli.add("--trace FILE", &trace_path,
            "write a Chrome/Perfetto trace-event JSON of the run");
    cli.add("--metrics-out FILE", &metrics_path,
            "write stage summaries + metrics registry as JSON");
    cli.parseOrExit(argc, argv);

    std::vector<SceneId> scenes;
    try {
        scenes = bench::parseSceneList(scenes_arg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    bool run_tile = false, run_gw = false;
    for (const std::string &r : splitList(renderers_arg)) {
        if (r == "tile")
            run_tile = true;
        else if (r == "gw" || r == "gaussian-wise")
            run_gw = true;
        else {
            std::fprintf(stderr, "unknown renderer: %s\n", r.c_str());
            return 2;
        }
    }
    if (!run_tile && !run_gw) {
        std::fprintf(stderr, "no renderers selected (--renderers "
                             "tile,gw)\n");
        return 2;
    }

    // The sweep's scaling baseline is the single-thread point.
    if (!thread_counts.empty() &&
        std::find(thread_counts.begin(), thread_counts.end(), 1) ==
            thread_counts.end())
        thread_counts.insert(thread_counts.begin(), 1);

    bench::banner("frame_throughput",
                  "host frames/s of the functional renderers", scale);
    std::printf("frames/scene %d, reps %d, base workers %d, gw sub-view "
                "%d%s%s\n",
                frames, reps, workers, subview,
                reference ? ", scalar references timed" : "",
                thread_counts.empty() ? "" : ", thread sweep on");

    ThreadPool base_pool(workers);
    ThreadPool *pool_or_null = workers > 1 ? &base_pool : nullptr;
    std::map<int, std::unique_ptr<ThreadPool>> sweep_pools;
    for (int t : thread_counts)
        if (t > 1 && sweep_pools.find(t) == sweep_pools.end())
            sweep_pools.emplace(t, std::make_unique<ThreadPool>(t));

    // One sample row per (scene, renderer, frame, rep); ms/frame in
    // frame_ms/wall_ms, throughput in fps.  The backend field is
    // meaningless for host timing and left at its default.
    std::vector<JobResult> rows;
    std::vector<std::string> scene_names;
    std::vector<std::string> variant_names;
    int next_id = 0;
    bool checks_ok = true;

    // (scene, variant) -> mean ms, filled after aggregation.
    struct SpeedupRow
    {
        std::string scene;
        std::string renderer;
        double speedup;
    };
    std::vector<SpeedupRow> speedups;
    struct ScalingRow
    {
        std::string scene;
        std::string renderer;
        int threads;
        double ms_mean;
        double ms_min;
        double fps_mean;
        double speedup_vs_t1;  ///< from ms_min (noise-robust)
    };
    std::vector<ScalingRow> scaling;
    struct StageRow
    {
        double pre_ms = 0.0;
        double bin_ms = 0.0;
        double raster_ms = 0.0;
    };
    // (scene, variant) -> mean per-stage ms over the timed samples.
    std::map<std::pair<std::string, std::string>, StageRow> stage_rows;
    struct TemporalRow
    {
        std::string scene;
        int stream_frames = 0;
        double step_translation = 0.0;  ///< max per-pose camera delta
        double step_rotation_rad = 0.0;
        double cold_ms_mean = 0.0;
        double exact_ms_mean = 0.0;
        double exact_speedup = 0.0;
        bool exact_identical = true;
        double warp_ms_mean = 0.0;
        double warp_speedup = 0.0;
        double warp_min_psnr_db = 0.0;
        TemporalCounters exact_counters;
        TemporalCounters warp_counters;
    };
    std::vector<TemporalRow> temporal_rows;

    GaussianWiseConfig gw_cfg;
    gw_cfg.subview_size = subview;

    for (SceneId id : scenes) {
        SceneSpec spec = scenePreset(id);
        const std::string scene = sceneName(id);
        scene_names.push_back(scene);
        GaussianCloud cloud = generateScene(spec, scale);
        Trajectory traj = Trajectory::forScene(spec, frames);
        std::printf("\n%s: %zu Gaussians, %dx%d, %d frames\n",
                    scene.c_str(), cloud.size(), spec.image_width,
                    spec.image_height, frames);

        std::vector<Variant> variants;
        if (run_tile) {
            variants.push_back(
                {"tile", "tile", false, pool_or_null, 0});
            if (reference)
                variants.push_back(
                    {"tile-ref", "tile", true, nullptr, 0});
            for (int t : thread_counts)
                variants.push_back(
                    {"tile-t" + std::to_string(t), "tile", false,
                     t > 1 ? sweep_pools.at(t).get() : nullptr, t});
        }
        if (run_gw) {
            variants.push_back(
                {"gw", "gw", false, pool_or_null, 0});
            if (reference)
                variants.push_back(
                    {"gw-ref", "gw", true, nullptr, 0});
            for (int t : thread_counts)
                variants.push_back(
                    {"gw-t" + std::to_string(t), "gw", false,
                     t > 1 ? sweep_pools.at(t).get() : nullptr, t});
        }

        TileRenderer tile_renderer;
        GaussianWiseRenderer gw_renderer(gw_cfg);

        auto render_once = [&](Variant &v, int frame,
                               bool record) -> std::pair<double, double> {
            const Camera &cam =
                traj.frame(static_cast<std::size_t>(frame));
            auto start = std::chrono::steady_clock::now();
            Image img;
            StageTimes stage;
            if (v.family == "tile") {
                StandardFlowStats st;
                img = v.reference
                          ? tile_renderer.renderReference(cloud, cam, st)
                          : tile_renderer.render(cloud, cam, st, v.pool);
                stage = st.stage;
            } else {
                GaussianWiseStats st;
                img = v.reference
                          ? gw_renderer.renderReference(cloud, cam, st)
                          : gw_renderer.render(cloud, cam, st, v.pool);
                stage = st.stage;
            }
            double ms = nowMsSince(start);
            if (record) {
                v.stage_sum.preprocess_ms += stage.preprocess_ms;
                v.stage_sum.binning_ms += stage.binning_ms;
                v.stage_sum.raster_ms += stage.raster_ms;
                ++v.stage_samples;
            }
            return {ms, imageChecksum(img)};
        };

        for (Variant &v : variants) {
            if (scene_names.size() == 1)
                variant_names.push_back(v.name);
            render_once(v, 0, false);  // warm-up: page in the cloud
        }
        // Reps interleave round-robin across variants so slow windows
        // on a shared host penalize every variant equally instead of
        // whichever happened to be timed last.
        for (int rep = 0; rep < reps; ++rep) {
            for (Variant &v : variants) {
                for (int f = 0; f < frames; ++f) {
                    auto [ms, check] = render_once(v, f, true);
                    JobResult r;
                    r.id = next_id++;
                    r.ok = true;
                    r.scene = scene;
                    r.variant = v.name;
                    r.frame = f;
                    r.frame_ms = ms;
                    r.wall_ms = ms;
                    r.fps = ms > 0.0 ? 1000.0 / ms : 0.0;
                    r.image_checksum = check;
                    rows.push_back(r);
                    // Sum over every timed render: a divergence on
                    // any frame of any rep shows up in the total.
                    v.check += check;
                }
            }
        }

        // Record per-stage means while the variants are in scope.
        for (const Variant &v : variants) {
            if (v.stage_samples == 0)
                continue;
            const double n = static_cast<double>(v.stage_samples);
            stage_rows[{scene, v.name}] = {
                v.stage_sum.preprocess_ms / n,
                v.stage_sum.binning_ms / n,
                v.stage_sum.raster_ms / n};
        }

        // Every variant of a renderer family is bit-identical
        // (optimized vs scalar reference, serial vs any worker
        // count); their summed checksums must agree exactly.
        for (const char *family : {"tile", "gw"}) {
            const Variant *first = nullptr;
            for (const Variant &v : variants) {
                if (v.family != family)
                    continue;
                if (first == nullptr) {
                    first = &v;
                    continue;
                }
                if (v.check != first->check) {
                    std::fprintf(stderr,
                                 "ERROR: %s %s checksum %.17g != %s "
                                 "%.17g\n",
                                 scene.c_str(), v.name.c_str(), v.check,
                                 first->name.c_str(), first->check);
                    checks_ok = false;
                }
            }
        }

        // ---- Temporal-coherence section: a slow held camera stream
        // through cold / exact-temporal / warp rendering. ----
        if (trajectory && run_tile) {
            Trajectory path = Trajectory::forSceneArc(
                spec, traj_frames, static_cast<float>(traj_arc));
            Trajectory stream;
            for (const Camera &cam : path.frames())
                for (int h = 0; h < hold; ++h)
                    stream.add(cam);
            const int n = static_cast<int>(stream.frameCount());
            const CameraDelta step = path.maxCameraDelta();

            TemporalRow trow;
            trow.scene = scene;
            trow.stream_frames = n;
            trow.step_translation = step.translation;
            trow.step_rotation_rad = step.rotation_rad;

            // Cold baseline: the stateless per-frame renderer, with
            // per-frame checksums as the bit-identity oracle.
            std::vector<double> cold_check(
                static_cast<std::size_t>(n));
            double cold_ms = 0.0;
            for (int f = 0; f < n; ++f) {
                StandardFlowStats st;
                auto start = std::chrono::steady_clock::now();
                Image img = tile_renderer.render(
                    cloud, stream.frame(static_cast<std::size_t>(f)),
                    st, pool_or_null);
                cold_ms += nowMsSince(start);
                cold_check[static_cast<std::size_t>(f)] =
                    imageChecksum(img);
            }

            // Exact temporal mode: every frame exact, bit-identical
            // to cold by contract.
            TemporalCache exact_cache;
            exact_cache.options.every = 1;
            double exact_ms = 0.0;
            for (int f = 0; f < n; ++f) {
                StandardFlowStats st;
                auto start = std::chrono::steady_clock::now();
                Image img = tile_renderer.renderTemporal(
                    cloud, stream.frame(static_cast<std::size_t>(f)),
                    st, exact_cache, pool_or_null);
                exact_ms += nowMsSince(start);
                if (imageChecksum(img) !=
                    cold_check[static_cast<std::size_t>(f)]) {
                    std::fprintf(stderr,
                                 "ERROR: %s exact temporal frame %d "
                                 "diverged from the cold render\n",
                                 scene.c_str(), f);
                    trow.exact_identical = false;
                    checks_ok = false;
                }
            }
            trow.exact_counters = exact_cache.counters();

            // Warp mode: every K-th frame exact, the rest reprojected
            // under the >= 40 dB contract (cold re-render per frame is
            // the untimed PSNR reference).
            TemporalCache warp_cache;
            warp_cache.options.every = temporal_every;
            double warp_ms = 0.0;
            double min_psnr = std::numeric_limits<double>::infinity();
            for (int f = 0; f < n; ++f) {
                const Camera &cam =
                    stream.frame(static_cast<std::size_t>(f));
                StandardFlowStats st;
                auto start = std::chrono::steady_clock::now();
                Image img = tile_renderer.renderTemporal(
                    cloud, cam, st, warp_cache, pool_or_null);
                warp_ms += nowMsSince(start);
                StandardFlowStats cold_st;
                Image cold_img =
                    tile_renderer.render(cloud, cam, cold_st,
                                         pool_or_null);
                min_psnr = std::min(min_psnr, psnrDb(cold_img, img));
            }
            trow.warp_counters = warp_cache.counters();
            if (min_psnr < 40.0) {
                std::fprintf(stderr,
                             "ERROR: %s warp mode min PSNR %.2f dB "
                             "breaks the >= 40 dB contract\n",
                             scene.c_str(), min_psnr);
                checks_ok = false;
            }

            trow.cold_ms_mean = cold_ms / n;
            trow.exact_ms_mean = exact_ms / n;
            trow.warp_ms_mean = warp_ms / n;
            trow.exact_speedup =
                exact_ms > 0.0 ? cold_ms / exact_ms : 0.0;
            trow.warp_speedup = warp_ms > 0.0 ? cold_ms / warp_ms : 0.0;
            trow.warp_min_psnr_db =
                std::isinf(min_psnr) ? 999.0 : min_psnr;

            std::printf(
                "%-10s temporal stream: %d frames (%d poses x hold "
                "%d, arc %.3f, step %.4f / %.4f rad)\n"
                "%-10s   cold %.2f ms, exact %.2f ms (%.2fx, "
                "bit-identical %s), warp %.2f ms (%.2fx, min PSNR "
                "%.1f dB)\n",
                scene.c_str(), n, traj_frames, hold, traj_arc,
                step.translation, step.rotation_rad, scene.c_str(),
                trow.cold_ms_mean, trow.exact_ms_mean,
                trow.exact_speedup,
                trow.exact_identical ? "yes" : "NO", trow.warp_ms_mean,
                trow.warp_speedup, trow.warp_min_psnr_db);
            temporal_rows.push_back(std::move(trow));
        }
    }

    // ---- Aggregate and report through ResultTable. ----
    ResultTable table(std::move(rows));
    auto ms_metric = [](const JobResult &r) { return r.frame_ms; };
    auto fps_metric = [](const JobResult &r) { return r.fps; };

    bench::rule();
    std::printf("%-10s %-9s %8s %8s %8s %8s %8s\n", "scene",
                "renderer", "ms_mean", "ms_p50", "ms_p90", "ms_p99",
                "fps_p50");
    bench::rule();

    std::string json = "{\n  \"bench\": \"frame_throughput\",\n";
    json += "  \"host\": " + bench::hostJson() + ",\n";
    {
        char head[200];
        std::snprintf(head, sizeof head,
                      "  \"scale\": %.4f,\n  \"frames\": %d,\n"
                      "  \"reps\": %d,\n  \"workers\": %d,\n"
                      "  \"gw_subview\": %d,\n",
                      static_cast<double>(scale), frames, reps, workers,
                      subview);
        json += head;
    }
    json += "  \"results\": [\n";

    bool first_row = true;
    for (const std::string &scene : scene_names) {
        std::map<std::string, double> mean_ms;
        std::map<std::string, double> min_ms;
        std::map<std::string, double> mean_fps;
        for (const std::string &ren : variant_names) {
            auto filter = [&](const JobResult &r) {
                return r.scene == scene && r.variant == ren;
            };
            Aggregate ms = table.over(ms_metric, filter);
            Aggregate fps = table.over(fps_metric, filter);
            if (ms.count == 0)
                continue;
            mean_ms[ren] = ms.mean;
            min_ms[ren] = ms.min;
            mean_fps[ren] = fps.mean;
            std::printf("%-10s %-9s %8.2f %8.2f %8.2f %8.2f %8.1f\n",
                        scene.c_str(), ren.c_str(), ms.mean, ms.p50,
                        ms.p90, ms.p99, fps.p50);
            char line[768];
            auto stage_it = stage_rows.find({scene, ren});
            const StageRow stage_mean =
                stage_it != stage_rows.end() ? stage_it->second
                                             : StageRow{};
            std::snprintf(
                line, sizeof line,
                "%s    {\"scene\": \"%s\", \"renderer\": \"%s\", "
                "\"samples\": %zu, \"ms_mean\": %.4f, "
                "\"ms_p50\": %.4f, \"ms_p90\": %.4f, "
                "\"ms_p99\": %.4f, \"ms_min\": %.4f, "
                "\"fps_mean\": %.4f, \"fps_p50\": %.4f, "
                "\"pre_ms_mean\": %.4f, \"bin_ms_mean\": %.4f, "
                "\"raster_ms_mean\": %.4f}",
                first_row ? "" : ",\n", scene.c_str(), ren.c_str(),
                ms.count, ms.mean, ms.p50, ms.p90, ms.p99, ms.min,
                fps.mean, fps.p50, stage_mean.pre_ms,
                stage_mean.bin_ms, stage_mean.raster_ms);
            json += line;
            first_row = false;
        }

        if (reference) {
            // min-of-reps: wall-clock noise on a shared host is
            // strictly additive, so the per-variant minimum is the
            // robust throughput estimator for ratios.
            for (const char *family : {"tile", "gw"}) {
                auto opt = min_ms.find(family);
                auto ref = min_ms.find(std::string(family) + "-ref");
                if (opt == min_ms.end() || ref == min_ms.end() ||
                    opt->second <= 0.0)
                    continue;
                double speedup = ref->second / opt->second;
                std::printf("%-10s optimized %s speedup: %.2fx\n",
                            scene.c_str(), family, speedup);
                speedups.push_back({scene, family, speedup});
            }
        }
        for (const char *family : {"tile", "gw"}) {
            auto t1 = min_ms.find(std::string(family) + "-t1");
            if (t1 == min_ms.end() || t1->second <= 0.0)
                continue;
            for (int t : thread_counts) {
                auto row = min_ms.find(std::string(family) + "-t" +
                                        std::to_string(t));
                if (row == min_ms.end() || row->second <= 0.0)
                    continue;
                double sp = t1->second / row->second;
                const std::string key =
                    std::string(family) + "-t" + std::to_string(t);
                scaling.push_back({scene, family, t, mean_ms[key],
                                   min_ms[key], mean_fps[key], sp});
                std::printf("%-10s %s x%d threads: %.2fx vs 1 thread\n",
                            scene.c_str(), family, t, sp);
            }
        }
    }
    json += "\n  ]";

    if (reference) {
        json += ",\n  \"speedup_vs_reference\": [\n";
        bool first = true;
        for (const SpeedupRow &s : speedups) {
            char line[200];
            std::snprintf(line, sizeof line,
                          "%s    {\"scene\": \"%s\", "
                          "\"renderer\": \"%s\", \"speedup\": %.4f}",
                          first ? "" : ",\n", s.scene.c_str(),
                          s.renderer.c_str(), s.speedup);
            json += line;
            first = false;
        }
        json += "\n  ]";
    }
    if (!scaling.empty()) {
        json += ",\n  \"thread_scaling\": [\n";
        bool first = true;
        for (const ScalingRow &s : scaling) {
            char line[256];
            std::snprintf(line, sizeof line,
                          "%s    {\"scene\": \"%s\", "
                          "\"renderer\": \"%s\", \"threads\": %d, "
                          "\"ms_mean\": %.4f, \"ms_min\": %.4f, "
                          "\"fps_mean\": %.4f, "
                          "\"speedup_vs_1t_min\": %.4f}",
                          first ? "" : ",\n", s.scene.c_str(),
                          s.renderer.c_str(), s.threads, s.ms_mean,
                          s.ms_min, s.fps_mean, s.speedup_vs_t1);
            json += line;
            first = false;
        }
        json += "\n  ]";
    }
    if (!temporal_rows.empty()) {
        auto counters_json = [](const TemporalCounters &c) {
            char buf[512];
            std::snprintf(
                buf, sizeof buf,
                "{\"frames\": %llu, \"exact\": %llu, \"copied\": %llu, "
                "\"warped\": %llu, \"full_rebuilds\": %llu, "
                "\"incremental\": %llu, \"tiles_total\": %llu, "
                "\"tiles_reused\": %llu, \"tiles_rastered\": %llu, "
                "\"tiles_patched\": %llu, \"tiles_resorted\": %llu, "
                "\"splats_changed\": %llu}",
                static_cast<unsigned long long>(c.frames),
                static_cast<unsigned long long>(c.exact_frames),
                static_cast<unsigned long long>(c.copied_frames),
                static_cast<unsigned long long>(c.warped_frames),
                static_cast<unsigned long long>(c.full_rebuilds),
                static_cast<unsigned long long>(c.incremental_frames),
                static_cast<unsigned long long>(c.tiles_total),
                static_cast<unsigned long long>(c.tiles_reused),
                static_cast<unsigned long long>(c.tiles_rastered),
                static_cast<unsigned long long>(c.tiles_patched),
                static_cast<unsigned long long>(c.tiles_resorted),
                static_cast<unsigned long long>(c.splats_changed));
            return std::string(buf);
        };
        char head[200];
        std::snprintf(head, sizeof head,
                      ",\n  \"temporal\": {\"every\": %d, \"hold\": %d, "
                      "\"arc\": %.4f, \"poses\": %d, \"rows\": [\n",
                      temporal_every, hold, traj_arc, traj_frames);
        json += head;
        bool first = true;
        for (const TemporalRow &t : temporal_rows) {
            char line[640];
            std::snprintf(
                line, sizeof line,
                "%s    {\"scene\": \"%s\", \"stream_frames\": %d, "
                "\"step_translation\": %.6f, \"step_rotation_rad\": "
                "%.6f,\n     \"cold_ms_mean\": %.4f, \"exact_ms_mean\": "
                "%.4f, \"exact_speedup\": %.4f, \"exact_bit_identical\": "
                "%s,\n     \"warp_ms_mean\": %.4f, \"warp_speedup\": "
                "%.4f, \"warp_min_psnr_db\": %.4f,\n",
                first ? "" : ",\n", t.scene.c_str(), t.stream_frames,
                t.step_translation, t.step_rotation_rad, t.cold_ms_mean,
                t.exact_ms_mean, t.exact_speedup,
                t.exact_identical ? "true" : "false", t.warp_ms_mean,
                t.warp_speedup, t.warp_min_psnr_db);
            json += line;
            json += "     \"exact_counters\": " +
                    counters_json(t.exact_counters) +
                    ",\n     \"warp_counters\": " +
                    counters_json(t.warp_counters) + "}";
            first = false;
        }
        json += "\n  ]}";
    }
    json += "\n}\n";

    if (out_path != "-") {
        if (!ResultTable::writeFile(out_path, json)) {
            std::fprintf(stderr, "failed to write %s\n",
                         out_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", out_path.c_str());
    }
    // Export after every pool job resolved: workers quiescent, rings
    // safe to read.
    if (!trace_path.empty()) {
        if (!ResultTable::writeFile(trace_path, obs::traceJson())) {
            std::fprintf(stderr, "failed to write %s\n",
                         trace_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", trace_path.c_str());
    }
    if (!metrics_path.empty()) {
        if (!ResultTable::writeFile(metrics_path,
                                    obs::observabilityJson())) {
            std::fprintf(stderr, "failed to write %s\n",
                         metrics_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", metrics_path.c_str());
    }
    return checks_ok ? 0 : 1;
}
