/**
 * @file
 * Observability overhead contract bench: the always-on recorder hooks
 * must cost < 3% of frame time.
 *
 * For each preset scene x renderer, renders the same short trajectory
 * with the recorder runtime-disabled and runtime-enabled in
 * interleaved passes (so frequency scaling and cache state hit both
 * sides equally), takes the min-of-reps wall time for each side, and
 * reports overhead = (on - off) / off.  The contract is enforced on
 * the per-renderer MEAN across scenes: a single noisy cell does not
 * fail the run, a systematic regression does.
 *
 * What this measures: the marginal cost of recording samples into the
 * per-thread rings (PerfScope/StageTimer bodies).  The disabled side
 * still pays the enabled() branch and the StageTimes sink updates,
 * which stay on so per-stage attribution never reads zero.
 *
 * Timing uses std::chrono directly: bench/ sits outside the lint
 * determinism scope, and the recorder under test must not time
 * itself.
 *
 * Run with --help for the flags.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/perf_recorder.h"
#include "render/gaussian_wise_renderer.h"
#include "render/tile_renderer.h"
#include "runtime/flags.h"
#include "scene/trajectory.h"

namespace {

using namespace gcc3d;
using gcc3d::bench::nowMsSince;
using gcc3d::bench::splitList;

} // namespace

int
main(int argc, char **argv)
{
    std::string scenes_arg = "palace,lego,train";
    std::string renderers_arg = "tile,gw";
    std::string out_path = "BENCH_obs.json";
    int frames = 2;
    int reps = 5;
    double threshold_pct = 3.0;
    float scale = bench::benchScale();

    flags::Parser cli;
    cli.add("--scenes LIST", &scenes_arg, "scene names or 'all'");
    cli.add("--renderers LIST", &renderers_arg, "subset of tile,gw");
    cli.add("--frames N", &frames, "trajectory frames per pass").min(1);
    cli.add("--reps N", &reps, "interleaved off/on passes per cell").min(1);
    cli.add("--threshold PCT", &threshold_pct,
            "max allowed per-renderer mean overhead in percent")
        .above(0);
    cli.add("--scale F", &scale,
            "population scale; GCC3D_SCALE sets the default")
        .above(0).max(1);
    cli.add("--out FILE", &out_path, "JSON output path; '-' disables");
    cli.parseOrExit(argc, argv);

    std::vector<SceneId> scenes;
    bool run_tile = false, run_gw = false;
    try {
        scenes = bench::parseSceneList(scenes_arg);
        for (const std::string &r : splitList(renderers_arg)) {
            if (r == "tile")
                run_tile = true;
            else if (r == "gw" || r == "gaussian-wise")
                run_gw = true;
            else
                throw std::invalid_argument("unknown renderer: " + r);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (scenes.empty() || (!run_tile && !run_gw)) {
        std::fprintf(stderr, "empty scene or renderer list\n");
        return 2;
    }

    bench::banner("obs_overhead",
                  "always-on observability cost contract", scale);
    std::printf("%d frames/pass, %d interleaved off/on reps, "
                "threshold %.1f%% (per-renderer mean)\n",
                frames, reps, threshold_pct);

    struct Cell
    {
        std::string scene;
        std::string renderer;
        double off_ms;       ///< min-of-reps pass time, recorder off
        double on_ms;        ///< min-of-reps pass time, recorder on
        double overhead_pct; ///< 100 * (on - off) / off
    };
    std::vector<Cell> cells;

    obs::PerfRecorder &recorder = obs::PerfRecorder::global();
    for (SceneId id : scenes) {
        SceneSpec spec = scenePreset(id);
        const std::string scene = sceneName(id);
        GaussianCloud cloud = generateScene(spec, scale);
        Trajectory traj = Trajectory::forScene(spec, frames);

        TileRenderer tile_renderer;
        GaussianWiseRenderer gw_renderer;

        // One pass = every trajectory frame once, single-threaded so
        // the hook cost is not diluted across workers.
        auto pass = [&](const std::string &renderer) -> double {
            auto start = std::chrono::steady_clock::now();
            for (int f = 0; f < frames; ++f) {
                const Camera &cam =
                    traj.frame(static_cast<std::size_t>(f));
                if (renderer == "tile") {
                    StandardFlowStats st;
                    (void)tile_renderer.render(cloud, cam, st);
                } else {
                    GaussianWiseStats st;
                    (void)gw_renderer.render(cloud, cam, st);
                }
            }
            return nowMsSince(start);
        };

        std::vector<std::string> renderers;
        if (run_tile)
            renderers.push_back("tile");
        if (run_gw)
            renderers.push_back("gw");
        for (const std::string &renderer : renderers) {
            (void)pass(renderer);  // warm-up (first-touch, caches)
            double off_ms = std::numeric_limits<double>::infinity();
            double on_ms = std::numeric_limits<double>::infinity();
            for (int rep = 0; rep < reps; ++rep) {
                recorder.setEnabled(false);
                off_ms = std::min(off_ms, pass(renderer));
                recorder.setEnabled(true);
                on_ms = std::min(on_ms, pass(renderer));
            }
            Cell cell;
            cell.scene = scene;
            cell.renderer = renderer;
            cell.off_ms = off_ms;
            cell.on_ms = on_ms;
            cell.overhead_pct =
                off_ms > 0.0 ? 100.0 * (on_ms - off_ms) / off_ms : 0.0;
            cells.push_back(cell);
        }
    }
    recorder.setEnabled(true);

    bench::rule();
    std::printf("%-10s %-6s %12s %12s %10s\n", "scene", "render",
                "off_ms_min", "on_ms_min", "overhead");
    bench::rule();
    for (const Cell &c : cells)
        std::printf("%-10s %-6s %12.3f %12.3f %9.2f%%\n",
                    c.scene.c_str(), c.renderer.c_str(), c.off_ms,
                    c.on_ms, c.overhead_pct);

    struct RendererMean
    {
        std::string renderer;
        double mean_pct = 0.0;
        bool ok = true;
    };
    std::vector<RendererMean> means;
    bool contract_ok = true;
    for (const std::string &renderer :
         std::vector<std::string>{"tile", "gw"}) {
        double sum = 0.0;
        int n = 0;
        for (const Cell &c : cells)
            if (c.renderer == renderer) {
                sum += c.overhead_pct;
                ++n;
            }
        if (n == 0)
            continue;
        RendererMean m;
        m.renderer = renderer;
        m.mean_pct = sum / n;
        m.ok = m.mean_pct < threshold_pct;
        contract_ok = contract_ok && m.ok;
        means.push_back(m);
    }

    bench::rule();
    for (const RendererMean &m : means)
        std::printf("%-6s mean overhead %6.2f%% (threshold %.1f%%) -> "
                    "%s\n",
                    m.renderer.c_str(), m.mean_pct, threshold_pct,
                    m.ok ? "ok" : "CONTRACT VIOLATED");

    std::ostringstream json;
    json.precision(10);
    json << "{\n  \"bench\": \"obs_overhead\",\n"
         << "  \"host\": " << bench::hostJson() << ",\n"
         << "  \"scale\": " << static_cast<double>(scale) << ",\n"
         << "  \"frames\": " << frames << ",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"threshold_pct\": " << threshold_pct << ",\n"
         << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        json << "    {\"scene\": \"" << c.scene
             << "\", \"renderer\": \"" << c.renderer
             << "\", \"off_ms_min\": " << c.off_ms
             << ", \"on_ms_min\": " << c.on_ms
             << ", \"overhead_pct\": " << c.overhead_pct << "}"
             << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"renderer_means\": [\n";
    for (std::size_t i = 0; i < means.size(); ++i) {
        const RendererMean &m = means[i];
        json << "    {\"renderer\": \"" << m.renderer
             << "\", \"mean_overhead_pct\": " << m.mean_pct
             << ", \"ok\": " << (m.ok ? "true" : "false") << "}"
             << (i + 1 < means.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"contract_ok\": "
         << (contract_ok ? "true" : "false") << "\n}\n";

    if (out_path != "-") {
        if (!ResultTable::writeFile(out_path, json.str())) {
            std::fprintf(stderr, "failed to write %s\n",
                         out_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", out_path.c_str());
    }
    if (!contract_ok)
        std::fprintf(stderr, "ERROR: observability overhead exceeded "
                             "%.1f%%\n", threshold_pct);
    return contract_ok ? 0 : 1;
}
