/**
 * @file
 * Multi-session render-serving CLI: build a session fleet (N clients
 * cycling through scenes and a renderer mix), serve it through the
 * SLO-aware FrameScheduler on a thread pool, and print the per-session
 * and fleet SLO report.
 *
 * Examples:
 *   gcc3d_serve --sessions 8 --frames 16 --policy edf --fps-target 90
 *   gcc3d_serve --sessions 4 --frames 8 --renderers tile,gw --threads 4
 *   gcc3d_serve --sessions 12 --scenes lego,train --cache-dir .gsc-cache
 *
 * Scheduling never changes pixels: per-session checksums equal serial
 * rendering (locked in by tests/test_serve.cc and bench/serve_throughput).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench_util.h"
#include "lod/lod_builder.h"
#include "obs/trace_export.h"
#include "runtime/flags.h"
#include "serve/fleet.h"
#include "serve/frame_scheduler.h"

using namespace gcc3d;
using gcc3d::bench::splitList;

int
main(int argc, char **argv)
{
    // Flags bind straight to the configs they set; each config's
    // field initialiser is the default unless overridden here.
    FleetSpec fleet_spec;
    fleet_spec.scale = bench::benchScale();
    fleet_spec.gw.subview_size = 128;
    SchedulerOptions sched;
    serve::LoadGenConfig load;
    serve::ChaosConfig chaos_cfg;
    std::string scenes_arg = "lego";
    std::string renderers_arg = "tile";
    std::string policy_arg = "fifo";
    std::string cache_dir;
    std::string json_path;
    std::string trace_path;
    std::string metrics_path;
    std::string chaos_log_path;
    int threads = 0;
    double budget_mib = 256.0;
    std::uint64_t city = 0;
    double open_loop_rate = 0.0;
    bool quiet = false;

    flags::Parser cli;
    cli.add("--sessions N", &fleet_spec.sessions,
            "concurrent client sessions")
        .min(1);
    cli.add("--frames N", &fleet_spec.frames, "frames streamed per session")
        .min(1);
    cli.add("--policy P", &policy_arg, "fifo | rr | edf");
    cli.add("--renderers LIST", &renderers_arg,
            "renderer mix, cycled across sessions; subset of tile,gw");
    cli.add("--fps-target F", &fleet_spec.fps_target,
            "per-session FPS target; frames get EDF deadlines and miss "
            "accounting (0 = best effort)")
        .min(0);
    cli.add("--drop-late", &sched.drop_late,
            "shed frames already past their deadline at dispatch "
            "instead of rendering them");
    cli.add("--threads N", &threads,
            "render workers; 0 = all hardware threads")
        .min(0).max(bench::kMaxWorkers);
    cli.add("--scenes LIST", &scenes_arg,
            "comma-separated scene names or 'all', cycled across "
            "sessions");
    cli.add("--subview N", &fleet_spec.gw.subview_size,
            "Gaussian-wise Cmode sub-view side; 0 = full view")
        .min(0);
    cli.add("--scale F", &fleet_spec.scale,
            "population scale; GCC3D_SCALE sets the default")
        .above(0).max(1);
    cli.add("--cache-dir DIR", &cache_dir,
            ".gsc scene cache; repeated runs skip scene generation "
            "(results unchanged)");
    cli.add("--lod FILE", &fleet_spec.lod_path,
            "serve the .gsc v2 LOD scene at FILE under the memory "
            "budget instead of generating resident clouds (scene list "
            "still sets the camera paths)");
    // Converted to bytes as a size_t; the cap keeps that in range.
    cli.add("--memory-budget M", &budget_mib,
            "leaf-chunk residency budget in MiB")
        .above(0).max(1 << 24);
    cli.add("--lod-tau F", &fleet_spec.lod_cut.tau,
            "LOD cut angular threshold in radians (smaller = more "
            "detail)")
        .above(0);
    cli.add("--city N", &city,
            "view the N-splat City corridor preset (with --lod, a "
            "missing FILE is built by the streamed LOD builder first)");
    cli.add("--temporal K", &fleet_spec.temporal,
            "temporal coherence for tile resident-cloud sessions: 0 = "
            "off, 1 = exact incremental mode (bit-identical), K > 1 = "
            "render every K-th frame exactly and reproject the rest "
            "(>= 40 dB contract)")
        .min(0);
    cli.add("--traj-arc F", &fleet_spec.traj_arc,
            "fraction of each scene's camera path the trajectories "
            "cover in the same frame count (temporal streams use "
            "smaller arcs for headset-like steps)")
        .above(0).max(1);
    cli.add("--open-loop R", &open_loop_rate,
            "open-loop serving: sessions arrive as a Poisson process "
            "at R sessions/s instead of all joining at t=0 (--sessions "
            "is ignored; --frames caps session length); unset = "
            "closed loop")
        .above(0);
    cli.add("--duration MS", &load.duration_ms, "open-loop arrival window")
        .above(0);
    cli.add("--diurnal A", &load.diurnal_amplitude,
            "sinusoidal rate modulation amplitude over "
            "--diurnal-period ms")
        .min(0).below(1);
    cli.add("--diurnal-period MS", &load.diurnal_period_ms,
            "diurnal modulation period")
        .above(0);
    cli.add("--load-seed N", &load.seed, "arrival-process seed");
    cli.add("--admission", &sched.admission.enabled,
            "enable admission control (token bucket + fairness)");
    cli.add("--admission-rate F", &sched.admission.rate_hz,
            "bucket refill in renders/s; 0 = no bucket")
        .min(0);
    cli.add("--admission-burst F", &sched.admission.burst,
            "bucket capacity")
        .min(0);
    cli.add("--admission-depth N", &sched.admission.max_queue_depth,
            "queue depth that counts as scarce (0 = off)")
        .min(0);
    cli.add("--fair-share F", &sched.admission.fair_share,
            "under scarcity, shed sessions holding more than F x the "
            "fleet-average renders (0 = off)")
        .min(0);
    cli.add("--degrade", &fleet_spec.degrade,
            "enable the graceful-degradation ladder (full -> warp -> "
            "half-res -> coarse LOD -> drop, driven by measured slack)");
    cli.add("--degrade-scale F", &fleet_spec.degrade_render_scale,
            "reduced-resolution tier multiplier")
        .above(0).below(1);
    cli.add("--degrade-tau F", &fleet_spec.degrade_tau_factor,
            "coarse-LOD tier tau multiplier")
        .min(1);
    cli.add("--chaos SEED", &chaos_cfg.seed,
            "deterministic fault injection; 0 = off.  Same seed + same "
            "workload = same faults");
    cli.add("--chaos-io-fail R", &chaos_cfg.io_fail_rate,
            "scene .gsc read failure rate")
        .min(0).max(1);
    cli.add("--chaos-io-truncate R", &chaos_cfg.io_truncate_rate,
            "scene .gsc truncation rate")
        .min(0).max(1);
    cli.add("--chaos-decode-fail R", &chaos_cfg.decode_fail_rate,
            "LOD chunk decode failure rate")
        .min(0).max(1);
    cli.add("--chaos-stall R", &chaos_cfg.stall_rate, "worker stall rate")
        .min(0).max(1);
    cli.add("--chaos-stall-ms MS", &chaos_cfg.stall_ms, "stall duration")
        .min(0);
    cli.add("--chaos-disconnect R", &chaos_cfg.disconnect_rate,
            "mid-stream disconnect rate")
        .min(0).max(1);
    cli.add("--chaos-budget R", &chaos_cfg.budget_pressure_rate,
            "residency budget-pressure rate")
        .min(0).max(1);
    cli.add("--chaos-log FILE", &chaos_log_path,
            "write the canonical chaos event log (byte-identical for a "
            "fixed seed)");
    cli.add("--json FILE", &json_path, "write the serve report as JSON");
    cli.add("--trace FILE", &trace_path,
            "write a Chrome/Perfetto trace-event JSON of the run (open "
            "in chrome://tracing or ui.perfetto.dev)");
    cli.add("--metrics-out FILE", &metrics_path,
            "write the observability block (stage summaries + metrics "
            "registry) as JSON");
    cli.add("--quiet", &quiet, "suppress the per-session table");
    cli.parseOrExit(argc, argv);
    sched.degrade.enabled = fleet_spec.degrade;

    try {
        sched.policy = schedulerPolicyFromName(policy_arg);
        fleet_spec.renderers.clear();
        for (const std::string &name : splitList(renderers_arg))
            fleet_spec.renderers.push_back(sessionRendererFromName(name));
        if (city > 0)
            fleet_spec.scenes.push_back(
                citySpec(static_cast<std::size_t>(city)));
        else
            for (SceneId id : bench::parseSceneList(scenes_arg))
                fleet_spec.scenes.push_back(scenePreset(id));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (!fleet_spec.lod_path.empty()) {
        fleet_spec.lod_budget_bytes =
            static_cast<std::size_t>(budget_mib * (1 << 20));
        // The City corridor is too large to generate in RAM: a missing
        // LOD file is built once by the streamed builder and reused.
        if (city > 0 && !isGscV2File(fleet_spec.lod_path)) {
            std::printf("building %s: %llu-splat City LOD file "
                        "(streamed)...\n",
                        fleet_spec.lod_path.c_str(),
                        static_cast<unsigned long long>(city));
            if (!buildLodFileStreamed(fleet_spec.scenes.front(), city,
                                      fleet_spec.lod_path,
                                      LodBuildConfig{})) {
                std::fprintf(stderr, "failed to build %s\n",
                             fleet_spec.lod_path.c_str());
                return 1;
            }
        }
    }
    if (fleet_spec.scenes.empty() || fleet_spec.renderers.empty()) {
        std::fprintf(stderr, "empty scene or renderer list\n");
        return 2;
    }

    int workers = threads > 0 ? threads : ThreadPool::hardwareWorkers();
    std::printf("gcc3d_serve: %d sessions x %d frames, policy %s, %d "
                "workers, fps target %.1f%s, scale %.2f\n",
                fleet_spec.sessions, fleet_spec.frames, policy_arg.c_str(),
                workers, fleet_spec.fps_target,
                sched.drop_late ? ", drop-late" : "",
                static_cast<double>(fleet_spec.scale));

    try {
        // Chaos is installed before any scene work so .gsc cache
        // loads are already under fault injection.
        serve::ChaosEngine chaos_engine(chaos_cfg);
        serve::ChaosScope chaos_scope(&chaos_engine);
        if (chaos_cfg.enabled()) {
            sched.chaos = &chaos_engine;
            std::printf("chaos: seed %llu (io %.3f/%.3f decode %.3f "
                        "stall %.3f disconnect %.3f budget %.3f)\n",
                        static_cast<unsigned long long>(chaos_cfg.seed),
                        chaos_cfg.io_fail_rate, chaos_cfg.io_truncate_rate,
                        chaos_cfg.decode_fail_rate, chaos_cfg.stall_rate,
                        chaos_cfg.disconnect_rate,
                        chaos_cfg.budget_pressure_rate);
        }

        SceneRegistry registry(cache_dir);
        std::vector<Session> fleet;
        if (open_loop_rate > 0.0) {
            load.base_rate_hz = open_loop_rate;
            load.frames_min = std::max(1, fleet_spec.frames / 2);
            load.frames_max = fleet_spec.frames;
            load.fps_target = static_cast<float>(fleet_spec.fps_target);
            const std::vector<serve::SessionArrival> arrivals =
                serve::generateArrivals(load);
            std::printf("open-loop: %zu arrivals over %.0f ms (%.1f "
                        "sessions/s, %llu offered frames)\n",
                        arrivals.size(), load.duration_ms, open_loop_rate,
                        static_cast<unsigned long long>(
                            serve::totalOfferedFrames(arrivals)));
            fleet = buildOpenLoopFleet(fleet_spec, arrivals, registry);
        } else {
            fleet = buildFleet(fleet_spec, registry);
        }
        std::printf("fleet shares %zu distinct scene clouds across %zu "
                    "sessions\n",
                    registry.cloudCount(), fleet.size());

        ThreadPool pool(workers);
        FrameScheduler scheduler(sched);
        ServeReport report = scheduler.run(fleet, pool);

        if (chaos_cfg.enabled()) {
            std::printf("chaos: %llu faults fired\n",
                        static_cast<unsigned long long>(
                            chaos_engine.totalFired()));
            if (!chaos_log_path.empty() &&
                !ResultTable::writeFile(chaos_log_path,
                                        chaos_engine.eventLogText())) {
                std::fprintf(stderr, "failed to write %s\n",
                             chaos_log_path.c_str());
                return 1;
            }
        }

        if (!fleet.empty() && fleet.front().scene().lod) {
            const LodScene &lod = *fleet.front().scene().lod;
            ResidencyManager::Stats rs = lod.residencyStats();
            std::printf(
                "lod scene: %llu splats in %zu chunks, budget %.1f MiB, "
                "peak resident %.1f MiB (+%.1f MiB proxies), %llu "
                "faults / %llu hits / %llu evictions\n",
                static_cast<unsigned long long>(lod.totalCount()),
                lod.chunkCount(),
                static_cast<double>(lod.budgetBytes()) / (1 << 20),
                static_cast<double>(rs.peak_resident_bytes) / (1 << 20),
                static_cast<double>(lod.alwaysResidentBytes()) / (1 << 20),
                static_cast<unsigned long long>(rs.faults),
                static_cast<unsigned long long>(rs.hits),
                static_cast<unsigned long long>(rs.evictions));
        }

        if (!quiet)
            report.print();
        else
            std::printf("fleet FPS %.2f, miss rate %.1f%%, %d dropped\n",
                        report.fleetFps(), 100.0 * report.missRate(),
                        report.framesDropped());

        if (!json_path.empty() &&
            !ResultTable::writeFile(json_path, report.toJson())) {
            std::fprintf(stderr, "failed to write %s\n",
                         json_path.c_str());
            return 1;
        }
        // Export after the scheduler's futures resolved: every worker
        // is quiescent, so the recorder's rings are safe to read.
        if (!trace_path.empty() &&
            !ResultTable::writeFile(trace_path, obs::traceJson())) {
            std::fprintf(stderr, "failed to write %s\n",
                         trace_path.c_str());
            return 1;
        }
        if (!metrics_path.empty() &&
            !ResultTable::writeFile(metrics_path,
                                    obs::observabilityJson())) {
            std::fprintf(stderr, "failed to write %s\n",
                         metrics_path.c_str());
            return 1;
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
