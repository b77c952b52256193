/**
 * @file
 * LOD / residency benchmark behind the .gsc v2 scene format.
 *
 * Part A — quality contract: for each preset scene, builds a
 * quantized .gsc v2 LOD file, renders the original cloud as the
 * reference, then renders the scene with every chunk forced to one
 * LOD level (0 = leaves ... proxyLevels) and reports per-level PSNR,
 * cut size and render time.  Every level must land at or above its
 * declared floor (lodPsnrFloorDb); a miss fails the benchmark, so
 * regressions in the merge math or the quantizer break CI instead of
 * silently degrading images.
 *
 * Part B — scale contract: streams a city-scale preset (default 10M
 * splats — far past what a full-precision in-RAM cloud serves
 * comfortably) straight into a .gsc v2 file without materializing it,
 * then serves a session fleet from that file under a fixed
 * --memory-budget through the same SceneRegistry/FrameScheduler path
 * gcc3d_serve uses.  Reports build time, compression ratio, fleet
 * FPS and the residency counters; peak resident bytes above the
 * budget fail the benchmark.
 *
 * Results go to BENCH_lod.json so the LOD trajectory is tracked
 * across PRs.
 *
 * Run with --help for the flags.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "lod/lod_builder.h"
#include "lod/lod_scene.h"
#include "render/metrics.h"
#include "render/tile_renderer.h"
#include "runtime/flags.h"
#include "serve/fleet.h"
#include "serve/frame_scheduler.h"

namespace {

using namespace gcc3d;
using gcc3d::bench::nowMsSince;

std::string
tmpPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() /
            ("gcc3d_bench_" + stem + ".gsc"))
        .string();
}

/** One forced-level measurement of one scene. */
struct LevelRow
{
    int level = 0;
    double psnr_db = 0.0;
    double floor_db = 0.0;
    bool pass = false;
    double render_ms = 0.0;
    std::size_t cut_gaussians = 0;
};

struct SceneRow
{
    std::string scene;
    std::size_t gaussians = 0;
    std::size_t file_bytes = 0;
    std::size_t raw_bytes = 0;
    double build_ms = 0.0;
    std::vector<LevelRow> levels;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string scenes_arg = "palace,lego,train";
    std::string out_path = "BENCH_lod.json";
    std::size_t city_count = 10000000;
    std::size_t budget_mib = 256;
    int sessions = 4;
    int frames = 2;
    int threads = 0;
    float tau = 0.08f;
    bool keep = false;
    float scale = bench::benchScale();
    LodBuildConfig build_cfg;

    flags::Parser cli;
    cli.add("--scenes LIST", &scenes_arg,
            "presets for the per-level PSNR part ('none' skips)");
    cli.add("--scale F", &scale,
            "population scale; GCC3D_SCALE sets the default")
        .above(0).max(1);
    cli.add("--city N", &city_count,
            "splat count of the streamed city preset (0 skips part B)");
    // Shifted into bytes as a size_t; the cap keeps that in range.
    cli.add("--budget MIB", &budget_mib,
            "leaf residency budget for the city serve")
        .min(1).max(1 << 24);
    cli.add("--sessions N", &sessions, "serve sessions over the city scene")
        .min(1);
    cli.add("--frames N", &frames, "frames per session").min(1);
    cli.add("--tau F", &tau, "cut angular threshold").above(0);
    cli.add("--chunk-target N", &build_cfg.chunk_target,
            "leaf chunk size for built files")
        .min(1);
    cli.add("--proxy-base N", &build_cfg.proxy_base,
            "level-1 merge ratio for built files")
        .min(1);
    cli.add("--threads N", &threads,
            "render workers; 0 = all hardware threads")
        .min(0).max(bench::kMaxWorkers);
    cli.add("--keep", &keep, "keep the generated .gsc files");
    cli.add("--out FILE", &out_path, "JSON output path; '-' disables");
    cli.parseOrExit(argc, argv);

    std::vector<SceneId> scene_ids;
    if (scenes_arg != "none") {
        try {
            scene_ids = bench::parseSceneList(scenes_arg);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }

    bench::banner("lod_scale",
                  "clustered-LOD quality floors + budgeted city serve",
                  scale);
    bool all_ok = true;

    // ---- Part A: per-level PSNR against declared floors. ----
    std::vector<SceneRow> scene_rows;
    for (SceneId id : scene_ids) {
        SceneSpec spec = scenePreset(id);
        GaussianCloud cloud = generateScene(spec, scale);

        SceneRow row;
        row.scene = sceneName(id);
        row.gaussians = cloud.size();
        row.raw_bytes = cloud.size() * Gaussian::kTotalBytes;

        const std::string path = tmpPath("psnr_" + row.scene);
        auto t0 = std::chrono::steady_clock::now();
        if (!buildLodFile(cloud, path, build_cfg)) {
            std::fprintf(stderr, "ERROR: LOD build failed for %s\n",
                         row.scene.c_str());
            return 1;
        }
        row.build_ms = nowMsSince(t0);
        row.file_bytes = static_cast<std::size_t>(
            std::filesystem::file_size(path));

        LodScene lod(path, static_cast<std::size_t>(budget_mib) << 20);
        Camera cam = makeCamera(spec);
        TileRenderer renderer{TileRendererConfig{}};
        StandardFlowStats stats;
        Image ref = renderer.render(cloud, cam, stats);

        std::printf("\n%s: %zu gaussians, %.2fx compression, build "
                    "%.0f ms\n",
                    row.scene.c_str(), row.gaussians,
                    static_cast<double>(row.raw_bytes) /
                        static_cast<double>(row.file_bytes),
                    row.build_ms);
        bench::rule();
        std::printf("%-7s %10s %10s %12s %12s  %s\n", "level",
                    "psnr_db", "floor_db", "cut_splats", "render_ms",
                    "status");
        bench::rule();
        for (int level = 0; level <= lod.proxyLevels(); ++level) {
            LodCutParams params;
            params.force_level = level;
            LodCutStats cut_stats;
            GaussianCloud cut = lod.buildCut(cam, params, &cut_stats);

            auto t1 = std::chrono::steady_clock::now();
            Image img = renderer.render(cut, cam, stats);
            LevelRow lr;
            lr.render_ms = nowMsSince(t1);
            lr.level = level;
            lr.psnr_db = psnr(ref, img);
            lr.floor_db = lodPsnrFloorDb(level);
            lr.pass = lr.psnr_db >= lr.floor_db;
            lr.cut_gaussians = cut_stats.cut_gaussians;
            all_ok = all_ok && lr.pass;
            row.levels.push_back(lr);

            std::printf("%-7d %10.2f %10.2f %12zu %12.2f  %s\n", level,
                        lr.psnr_db, lr.floor_db, lr.cut_gaussians,
                        lr.render_ms,
                        lr.pass ? "ok" : "BELOW FLOOR");
        }
        scene_rows.push_back(row);
        if (!keep)
            std::filesystem::remove(path);
    }

    // ---- Part B: streamed city build + budgeted fleet serve. ----
    std::ostringstream city_json;
    if (city_count > 0) {
        SceneSpec city = citySpec(city_count);
        const std::string path =
            tmpPath("city_" + std::to_string(city_count));
        const std::size_t budget = budget_mib << 20;

        std::printf("\ncity: streaming %zu splats into %s\n",
                    city_count, path.c_str());
        auto t0 = std::chrono::steady_clock::now();
        if (!buildLodFileStreamed(city, city_count, path,
                                  build_cfg)) {
            std::fprintf(stderr, "ERROR: streamed city build failed\n");
            return 1;
        }
        double build_ms = nowMsSince(t0);
        const std::size_t file_bytes = static_cast<std::size_t>(
            std::filesystem::file_size(path));
        const std::size_t raw_bytes = city_count * Gaussian::kTotalBytes;

        FleetSpec fleet_spec;
        fleet_spec.sessions = sessions;
        fleet_spec.frames = frames;
        fleet_spec.scenes = {city};
        fleet_spec.lod_path = path;
        fleet_spec.lod_budget_bytes = budget;
        fleet_spec.lod_cut.tau = tau;

        SceneRegistry registry;
        // Hold the shared LodScene so its residency counters are
        // readable after the fleet run.
        SceneHandle handle =
            registry.acquireLod(path, budget, city, frames);
        std::vector<Session> fleet = buildFleet(fleet_spec, registry);

        int workers =
            threads > 0 ? threads : ThreadPool::hardwareWorkers();
        ThreadPool pool(workers);
        FrameScheduler scheduler(SchedulerOptions{});
        auto t1 = std::chrono::steady_clock::now();
        ServeReport report = scheduler.run(fleet, pool);
        double serve_ms = nowMsSince(t1);

        ResidencyManager::Stats rs = handle.lod->residencyStats();
        const std::size_t proxy_bytes = handle.lod->alwaysResidentBytes();
        const bool budget_ok = rs.peak_resident_bytes <= budget;
        all_ok = all_ok && budget_ok;

        std::printf("\ncity serve: %d sessions x %d frames, budget "
                    "%zu MiB\n",
                    sessions, frames, budget_mib);
        bench::rule();
        std::printf("  build: %.0f ms, file %.1f MiB (%.2fx over raw "
                    "%.1f MiB), %zu chunks, %d proxy levels\n",
                    build_ms, file_bytes / 1048576.0,
                    static_cast<double>(raw_bytes) /
                        static_cast<double>(file_bytes),
                    raw_bytes / 1048576.0, handle.lod->chunkCount(),
                    handle.lod->proxyLevels());
        std::printf("  serve: %.0f ms wall, fleet FPS %.2f\n", serve_ms,
                    report.fleetFps());
        std::printf("  residency: peak %.1f / %zu MiB%s, proxies %.1f "
                    "MiB, %zu faults / %zu hits / %zu evictions / %zu "
                    "transient\n",
                    rs.peak_resident_bytes / 1048576.0, budget_mib,
                    budget_ok ? "" : "  OVER BUDGET",
                    proxy_bytes / 1048576.0, rs.faults, rs.hits,
                    rs.evictions, rs.transient_loads);

        city_json.precision(10);
        city_json << ",\n  \"city\": {\n"
                  << "    \"splats\": " << city_count << ",\n"
                  << "    \"chunks\": " << handle.lod->chunkCount()
                  << ",\n    \"proxy_levels\": "
                  << handle.lod->proxyLevels() << ",\n"
                  << "    \"build_ms\": " << build_ms << ",\n"
                  << "    \"file_bytes\": " << file_bytes << ",\n"
                  << "    \"raw_bytes\": " << raw_bytes << ",\n"
                  << "    \"sessions\": " << sessions << ",\n"
                  << "    \"frames\": " << frames << ",\n"
                  << "    \"tau\": " << static_cast<double>(tau)
                  << ",\n    \"serve_wall_ms\": " << serve_ms << ",\n"
                  << "    \"fleet_fps\": " << report.fleetFps() << ",\n"
                  << "    \"budget_bytes\": " << budget << ",\n"
                  << "    \"peak_resident_bytes\": "
                  << rs.peak_resident_bytes << ",\n"
                  << "    \"always_resident_proxy_bytes\": "
                  << proxy_bytes << ",\n"
                  << "    \"faults\": " << rs.faults << ",\n"
                  << "    \"hits\": " << rs.hits << ",\n"
                  << "    \"evictions\": " << rs.evictions << ",\n"
                  << "    \"transient_loads\": " << rs.transient_loads
                  << ",\n    \"budget_ok\": "
                  << (budget_ok ? "true" : "false") << "\n  }";
        if (!keep)
            std::filesystem::remove(path);
    }

    // ---- JSON snapshot. ----
    std::ostringstream json;
    json.precision(10);
    json << "{\n  \"bench\": \"lod_scale\",\n"
         << "  \"host\": " << bench::hostJson() << ",\n"
         << "  \"scale\": " << static_cast<double>(scale) << ",\n"
         << "  \"scenes\": [\n";
    for (std::size_t i = 0; i < scene_rows.size(); ++i) {
        const SceneRow &r = scene_rows[i];
        json << "    {\"scene\": \"" << r.scene
             << "\", \"gaussians\": " << r.gaussians
             << ", \"file_bytes\": " << r.file_bytes
             << ", \"raw_bytes\": " << r.raw_bytes
             << ", \"build_ms\": " << r.build_ms
             << ",\n     \"levels\": [\n";
        for (std::size_t j = 0; j < r.levels.size(); ++j) {
            const LevelRow &l = r.levels[j];
            json << "       {\"level\": " << l.level
                 << ", \"psnr_db\": " << l.psnr_db
                 << ", \"floor_db\": " << l.floor_db
                 << ", \"pass\": " << (l.pass ? "true" : "false")
                 << ", \"cut_gaussians\": " << l.cut_gaussians
                 << ", \"render_ms\": " << l.render_ms << "}"
                 << (j + 1 < r.levels.size() ? "," : "") << "\n";
        }
        json << "     ]}" << (i + 1 < scene_rows.size() ? "," : "")
             << "\n";
    }
    json << "  ]";
    json << city_json.str();
    json << ",\n  \"all_ok\": " << (all_ok ? "true" : "false")
         << "\n}\n";

    if (out_path != "-") {
        if (!ResultTable::writeFile(out_path, json.str())) {
            std::fprintf(stderr, "failed to write %s\n",
                         out_path.c_str());
            return 1;
        }
        std::printf("\nwrote %s\n", out_path.c_str());
    }
    if (!all_ok)
        std::fprintf(stderr, "ERROR: a PSNR floor or the residency "
                             "budget was violated\n");
    return all_ok ? 0 : 1;
}
