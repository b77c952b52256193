/**
 * @file
 * Serving-throughput benchmark: a fleet of concurrent render sessions
 * through the SLO-aware FrameScheduler vs the serial
 * one-session-at-a-time baseline.
 *
 * Builds N sessions (cycling scenes and the tile/gw renderer mix,
 * sharing scene state through the SceneRegistry), renders the whole
 * fleet serially on one thread as the baseline, then serves it
 * through each scheduler policy on a thread pool.  Reports aggregate
 * fleet FPS, the speedup over serial, and fleet latency percentiles —
 * and cross-checks every session's frame-order checksum against the
 * serial baseline, proving scheduling never changes pixels.  Results
 * go to BENCH_serve.json so the serving trajectory is tracked across
 * PRs.
 *
 * Usage:
 *   serve_throughput [--sessions N] [--frames N] [--scenes LIST]
 *                    [--renderers tile,gw] [--policies fifo,rr,edf]
 *                    [--threads N] [--fps-target F] [--scale F]
 *                    [--out FILE]
 *
 * A non-zero --fps-target adds a paced EDF run with deadline-miss
 * accounting on top of the best-effort throughput runs.
 *
 * --temporal K streams tile resident-cloud sessions through the
 * temporal coherence engine (see src/render/temporal_cache.h).  The
 * checksum cross-check still holds — serial baseline and scheduled
 * runs replay identical frame sequences through reset caches — and an
 * extra validation pass renders every temporal scene cold to enforce
 * the fidelity contract: K = 1 must be bit-identical, K > 1 must stay
 * >= 40 dB PSNR on every frame.  Contract violations fail the run.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/trace_export.h"
#include "render/metrics.h"
#include "serve/fleet.h"
#include "serve/frame_scheduler.h"

namespace {

using namespace gcc3d;
using gcc3d::bench::splitList;

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --sessions N     concurrent sessions (default: 8)\n"
        "  --frames N       frames per session (default: 6)\n"
        "  --scenes LIST    scene names or 'all', cycled across\n"
        "                   sessions (default: palace,lego,train)\n"
        "  --renderers LIST renderer mix, subset of tile,gw\n"
        "                   (default: tile,gw)\n"
        "  --policies LIST  subset of fifo,rr,edf (default: all)\n"
        "  --threads N      render workers; 0 = all hardware threads\n"
        "                   (default: 0)\n"
        "  --fps-target F   adds a paced EDF run with deadline\n"
        "                   accounting (default: 0 = skip)\n"
        "  --subview N      gw Cmode sub-view side (default: 128)\n"
        "  --temporal K     temporal coherence for tile resident-cloud\n"
        "                   sessions: 0 = off, 1 = exact incremental\n"
        "                   (bit-identical, validated), K > 1 = exact\n"
        "                   every K-th frame + reprojection (>= 40 dB\n"
        "                   contract, validated) (default: 0)\n"
        "  --traj-arc F     fraction of each scene's camera path the\n"
        "                   trajectories cover (default: 1.0)\n"
        "  --scale F        population scale in (0,1] (default:\n"
        "                   GCC3D_SCALE env or 1.0)\n"
        "  --no-overload    skip the open-loop overload sweep\n"
        "                   (goodput-vs-offered-load curve; ladder vs\n"
        "                   drop-only shedding)\n"
        "  --overload-frames N  offered frames per sweep leg\n"
        "                   (default: 120)\n"
        "  --out FILE       JSON output path (default:\n"
        "                   BENCH_serve.json; '-' disables)\n"
        "  --trace FILE     write a Chrome/Perfetto trace-event JSON\n"
        "                   of the whole run\n",
        argv0);
}

/** Nearest-neighbor upsample, for scoring a reduced-resolution frame
 *  against its full-resolution reference. */
Image
upsampleNearest(const Image &src, int w, int h)
{
    Image out(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            out.at(x, y) =
                src.at(std::min(src.width() - 1, x * src.width() / w),
                       std::min(src.height() - 1, y * src.height() / h));
    return out;
}

/** Compare a scheduled run's per-session checksums to the baseline. */
bool
checksumsMatch(const ServeReport &report, const SerialBaseline &base)
{
    if (report.sessions.size() != base.checksums.size())
        return false;
    for (std::size_t i = 0; i < report.sessions.size(); ++i) {
        if (report.sessions[i].checksum != base.checksums[i]) {
            std::fprintf(stderr,
                         "ERROR: session %zu checksum %.17g != serial "
                         "%.17g (policy %s)\n",
                         i, report.sessions[i].checksum,
                         base.checksums[i], report.policy.c_str());
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scenes_arg = "palace,lego,train";
    std::string renderers_arg = "tile,gw";
    std::string policies_arg = "fifo,rr,edf";
    std::string out_path = "BENCH_serve.json";
    std::string trace_path;
    int sessions = 8;
    int frames = 6;
    int threads = 0;
    int subview = 128;
    int temporal = 0;
    double traj_arc = 1.0;
    double fps_target = 0.0;
    bool overload = true;
    int overload_frames = 120;
    float scale = benchScale();

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             flag.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (flag == "--help" || flag == "-h") {
            usage(argv[0]);
            return 0;
        } else if (flag == "--sessions") {
            sessions = std::atoi(value().c_str());
        } else if (flag == "--frames") {
            frames = std::atoi(value().c_str());
        } else if (flag == "--scenes") {
            scenes_arg = value();
        } else if (flag == "--renderers") {
            renderers_arg = value();
        } else if (flag == "--policies") {
            policies_arg = value();
        } else if (flag == "--threads") {
            threads = std::atoi(value().c_str());
        } else if (flag == "--fps-target") {
            fps_target = std::atof(value().c_str());
        } else if (flag == "--subview") {
            subview = std::atoi(value().c_str());
        } else if (flag == "--temporal") {
            temporal = std::atoi(value().c_str());
        } else if (flag == "--traj-arc") {
            traj_arc = std::atof(value().c_str());
        } else if (flag == "--scale") {
            scale = static_cast<float>(std::atof(value().c_str()));
        } else if (flag == "--no-overload") {
            overload = false;
        } else if (flag == "--overload-frames") {
            overload_frames = std::atoi(value().c_str());
        } else if (flag == "--out") {
            out_path = value();
        } else if (flag == "--trace") {
            trace_path = value();
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (sessions < 1 || frames < 1 || fps_target < 0.0 ||
        scale <= 0.0f || scale > 1.0f) {
        std::fprintf(stderr,
                     "--sessions/--frames must be >= 1, --fps-target "
                     ">= 0 and --scale in (0, 1]\n");
        return 2;
    }
    if (temporal < 0 || traj_arc <= 0.0 || traj_arc > 1.0) {
        std::fprintf(stderr, "--temporal must be >= 0 and --traj-arc "
                             "in (0, 1]\n");
        return 2;
    }

    FleetSpec fleet_spec;
    fleet_spec.sessions = sessions;
    fleet_spec.frames = frames;
    fleet_spec.scale = scale;
    fleet_spec.gw.subview_size = subview < 0 ? 0 : subview;
    fleet_spec.temporal = temporal;
    fleet_spec.traj_arc = static_cast<float>(traj_arc);

    std::vector<SchedulerPolicy> policies;
    try {
        for (SceneId id : bench::parseSceneList(scenes_arg))
            fleet_spec.scenes.push_back(scenePreset(id));
        fleet_spec.renderers.clear();
        for (const std::string &name : splitList(renderers_arg))
            fleet_spec.renderers.push_back(sessionRendererFromName(name));
        for (const std::string &name : splitList(policies_arg))
            policies.push_back(schedulerPolicyFromName(name));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (fleet_spec.scenes.empty() || fleet_spec.renderers.empty() ||
        policies.empty()) {
        std::fprintf(stderr, "empty scene, renderer or policy list\n");
        return 2;
    }

    int workers = threads > 0 ? threads : ThreadPool::hardwareWorkers();

    bench::banner("serve_throughput",
                  "multi-session serving vs the serial baseline", scale);
    std::printf("%d sessions x %d frames, %d workers (host has %d "
                "hardware threads)\n",
                sessions, frames, workers, ThreadPool::hardwareWorkers());

    SceneRegistry registry;
    std::vector<Session> fleet = buildFleet(fleet_spec, registry);
    std::printf("fleet shares %zu distinct scene clouds\n",
                registry.cloudCount());

    // Warm-up so the serial baseline is not penalized with first-touch
    // costs the scheduled runs then get for free.
    for (const Session &s : fleet)
        s.renderFrame(0);

    SerialBaseline base = renderSerial(fleet);
    std::printf("\nserial baseline: %.1f ms, fleet FPS %.2f\n",
                base.wall_ms, base.fleet_fps);

    struct PolicyRow
    {
        std::string policy;
        double wall_ms;
        double fleet_fps;
        double speedup;
        bool checksums_match;
        Aggregate latency;
        Aggregate queue_wait;
        Aggregate queue_depth;
        std::int64_t sheds = 0;
        std::string miss_attribution;
    };
    std::vector<PolicyRow> policy_rows;
    bool all_ok = true;

    ThreadPool pool(workers);
    bench::rule();
    std::printf("%-8s %10s %10s %10s %10s %10s\n", "policy", "wall_ms",
                "fleet_fps", "speedup", "lat_p50", "lat_p99");
    bench::rule();
    for (SchedulerPolicy policy : policies) {
        SchedulerOptions options;
        options.policy = policy;
        FrameScheduler scheduler(options);
        ServeReport report = scheduler.run(fleet, pool);

        PolicyRow row;
        row.policy = report.policy;
        row.wall_ms = report.wall_ms;
        row.fleet_fps = report.fleetFps();
        row.speedup =
            report.wall_ms > 0.0 ? base.wall_ms / report.wall_ms : 0.0;
        row.checksums_match = checksumsMatch(report, base);
        row.latency = report.fleetLatencyMs();
        row.queue_wait = report.fleetQueueWaitMs();
        row.queue_depth = report.queue_depth;
        row.sheds = report.sheds;
        row.miss_attribution = report.missAttribution().toJson();
        all_ok = all_ok && row.checksums_match;
        policy_rows.push_back(row);

        std::printf("%-8s %10.1f %10.2f %9.2fx %10.2f %10.2f%s\n",
                    row.policy.c_str(), row.wall_ms, row.fleet_fps,
                    row.speedup, row.latency.p50, row.latency.p99,
                    row.checksums_match ? "" : "  CHECKSUM MISMATCH");
    }

    // Fidelity-contract validation for temporal mode: replay one
    // representative session per distinct scene, comparing every
    // temporal frame against a cold stateless render of the same
    // camera.  --temporal 1 must be bit-identical; --temporal K>1 must
    // hold >= 40 dB PSNR on every frame.
    struct TemporalCheck
    {
        std::string scene;
        double min_psnr_db = std::numeric_limits<double>::infinity();
        bool bit_identical = true;
        bool ok = true;
    };
    std::vector<TemporalCheck> temporal_checks;
    bool temporal_ok = true;
    if (temporal >= 1) {
        std::set<std::string> seen;
        std::printf("\ntemporal fidelity (every=%d, arc %.3f):\n",
                    temporal, traj_arc);
        for (const Session &s : fleet) {
            if (s.temporalCache() == nullptr ||
                !seen.insert(s.config().spec.name).second)
                continue;
            TileRenderer renderer(s.config().tile);
            TemporalCache cache;
            cache.options.every = temporal;
            TemporalCheck chk;
            chk.scene = s.config().spec.name;
            for (int f = 0; f < s.frameCount(); ++f) {
                const Camera &cam = s.scene().trajectory->frame(
                    static_cast<std::size_t>(f));
                StandardFlowStats cold_stats, warm_stats;
                Image cold =
                    renderer.render(*s.scene().cloud, cam, cold_stats);
                Image warm = renderer.renderTemporal(
                    *s.scene().cloud, cam, warm_stats, cache);
                chk.min_psnr_db =
                    std::min(chk.min_psnr_db, psnrDb(cold, warm));
                chk.bit_identical =
                    chk.bit_identical &&
                    std::memcmp(cold.pixels().data(),
                                warm.pixels().data(),
                                cold.pixelCount() * sizeof(Vec3)) == 0;
            }
            chk.ok = temporal == 1 ? chk.bit_identical
                                   : chk.min_psnr_db >= 40.0;
            temporal_ok = temporal_ok && chk.ok;
            std::printf("  %-10s min PSNR %8.2f dB, bit-identical %s "
                        "-> %s\n",
                        chk.scene.c_str(),
                        std::isinf(chk.min_psnr_db) ? 999.0
                                                    : chk.min_psnr_db,
                        chk.bit_identical ? "yes" : "no",
                        chk.ok ? "ok" : "CONTRACT VIOLATED");
            temporal_checks.push_back(std::move(chk));
        }
        all_ok = all_ok && temporal_ok;
    }

    // Optional paced run: every session carries an FPS target and EDF
    // schedules by deadline, reporting the achieved SLO.
    std::string paced_json;
    if (fps_target > 0.0) {
        FleetSpec paced_spec = fleet_spec;
        paced_spec.fps_target = fps_target;
        std::vector<Session> paced_fleet =
            buildFleet(paced_spec, registry);
        SchedulerOptions options;
        options.policy = SchedulerPolicy::Edf;
        FrameScheduler scheduler(options);
        ServeReport report = scheduler.run(paced_fleet, pool);
        bool ok = checksumsMatch(report, base);
        all_ok = all_ok && ok;
        Aggregate lat = report.fleetLatencyMs();
        std::printf("\npaced edf @ %.1f FPS/session: fleet FPS %.2f, "
                    "miss rate %.1f%%, lat p99 %.2f ms%s\n",
                    fps_target, report.fleetFps(),
                    100.0 * report.missRate(), lat.p99,
                    ok ? "" : "  CHECKSUM MISMATCH");
        std::ostringstream os;
        os.precision(10);
        os << ",\n  \"paced_edf\": {\"fps_target\": " << fps_target
           << ", \"fleet_fps\": " << report.fleetFps()
           << ", \"miss_rate\": " << report.missRate()
           << ", \"frames_dropped\": " << report.framesDropped()
           << ", \"latency_ms\": " << aggregateJson(lat)
           << ", \"sheds\": " << report.sheds
           << ",\n     \"miss_attribution\": "
           << report.missAttribution().toJson()
           << ",\n     \"checksums_match\": " << (ok ? "true" : "false")
           << "}";
        paced_json = os.str();
    }

    // ---- Overload sweep: open-loop arrivals at multiples of the
    // measured Full-render capacity, served twice per leg — drop-only
    // shedding vs the graceful-degradation ladder.  Goodput (on-time
    // frames per second) is the overload metric; at >= 2x offered
    // load the ladder must strictly beat drop-only or the bench exits
    // non-zero. ----
    struct OverloadRow
    {
        double multiplier = 0.0;
        double offered_fps = 0.0;
        std::uint64_t offered_frames = 0;
        int drop_on_time = 0;
        int ladder_on_time = 0;
        double drop_goodput = 0.0;
        double ladder_goodput = 0.0;
        double drop_miss = 0.0;
        double ladder_miss = 0.0;
        bool ladder_beats_drop = true;  ///< enforced at >= 2x only
    };
    std::vector<OverloadRow> overload_rows;
    std::string degradation_json;
    double warp_floor_db = std::numeric_limits<double>::infinity();
    double half_res_db = std::numeric_limits<double>::infinity();
    bool warp_ok = true;
    bool overload_ok = true;
    if (overload && overload_frames > 0) {
        // Measured Full-tier cost calibrates the offered load, so the
        // sweep stresses the scheduler identically at any --scale.
        // Capacity counts real parallelism: --threads beyond the
        // hardware thread count adds contention, not throughput, and
        // the sweep legs pin their worker count to match.
        const int sweep_workers =
            std::max(1, std::min(workers, ThreadPool::hardwareWorkers()));
        const double mean_full_ms =
            base.wall_ms / std::max(1, sessions * frames);
        const double capacity_fps =
            sweep_workers * 1000.0 / std::max(1e-6, mean_full_ms);
        // Deadline = 4 Full renders of slack: tight enough that
        // overload queueing starves Full, loose enough that the warp
        // and half-res tiers still fit.
        const double session_fps = 1000.0 / (4.0 * mean_full_ms);
        const double multipliers[] = {0.5, 1.0, 2.0, 4.0};

        std::printf("\noverload sweep (capacity %.1f fps, session "
                    "target %.1f fps, %d offered frames/leg):\n",
                    capacity_fps, session_fps, overload_frames);
        std::printf("%-6s %12s %12s %12s %10s %10s\n", "mult",
                    "offered_fps", "drop_good", "ladder_good",
                    "drop_miss", "ladd_miss");
        for (std::size_t leg = 0; leg < 4; ++leg) {
            const double m = multipliers[leg];
            OverloadRow row;
            row.multiplier = m;
            row.offered_fps = m * capacity_fps;

            serve::LoadGenConfig load;
            load.seed = 7 + leg;
            load.base_rate_hz = row.offered_fps / frames;
            load.duration_ms =
                1000.0 * overload_frames / row.offered_fps;
            load.frames_min = frames;
            load.frames_max = frames;
            load.fps_target = static_cast<float>(session_fps);
            const std::vector<serve::SessionArrival> arrivals =
                serve::generateArrivals(load);
            if (arrivals.empty())
                continue;
            row.offered_frames = serve::totalOfferedFrames(arrivals);

            // Same arrival table through both shedding strategies:
            // identical offered workload, different survival.
            auto run_leg = [&](bool ladder) -> ServeReport {
                FleetSpec spec = fleet_spec;
                spec.degrade = ladder;
                std::vector<Session> leg_fleet =
                    buildOpenLoopFleet(spec, arrivals, registry);
                SchedulerOptions opt;
                opt.policy = SchedulerPolicy::Edf;
                opt.workers = sweep_workers;
                opt.drop_late = true;
                opt.degrade.enabled = ladder;
                FrameScheduler sched(opt);
                return sched.run(leg_fleet, pool);
            };
            const ServeReport drop_report = run_leg(false);
            const ServeReport ladder_report = run_leg(true);

            row.drop_on_time = drop_report.framesOnTime();
            row.ladder_on_time = ladder_report.framesOnTime();
            row.drop_goodput = drop_report.goodputFps();
            row.ladder_goodput = ladder_report.goodputFps();
            row.drop_miss = drop_report.missRate();
            row.ladder_miss = ladder_report.missRate();
            if (m >= 2.0) {
                row.ladder_beats_drop =
                    row.ladder_on_time > row.drop_on_time;
                overload_ok = overload_ok && row.ladder_beats_drop;
            }
            if (m >= 2.0 && degradation_json.empty()) {
                int tiers[kDegradeTierCount];
                ladder_report.tierTotals(tiers);
                std::ostringstream os;
                os.precision(10);
                os << "{";
                for (int t = 0; t < kDegradeTierCount; ++t)
                    os << "\""
                       << degradeTierName(static_cast<DegradeTier>(t))
                       << "\": " << tiers[t] << ", ";
                os << "\"transitions\": "
                   << ladder_report.degradeTransitions()
                   << ", \"sheds\": " << ladder_report.sheds
                   << ", \"goodput_fps\": " << row.ladder_goodput << "}";
                degradation_json = os.str();
            }
            std::printf(
                "%5.1fx %12.1f %12.1f %12.1f %9.1f%% %9.1f%%%s\n", m,
                row.offered_fps, row.drop_goodput, row.ladder_goodput,
                100.0 * row.drop_miss, 100.0 * row.ladder_miss,
                row.ladder_beats_drop ? "" : "  LADDER NOT BETTER");
            overload_rows.push_back(row);
        }

        // Fidelity floors of the degraded tiers, measured on a
        // headset-like arc (full-arc presets jump too far per frame
        // for reprojection to be meaningful): forced warp must hold
        // the >= 40 dB contract; the reduced-resolution tier's PSNR
        // is recorded alongside it.
        {
            FleetSpec probe = fleet_spec;
            probe.sessions = 1;
            probe.frames = 2;
            probe.renderers = {SessionRenderer::Tile};
            probe.degrade = true;
            // Per-step camera delta is arc/frames; 0.0003 over two
            // frames matches the step size of the CI temporal leg
            // (arc 0.001 over eight frames) that holds the same
            // contract.
            probe.traj_arc = std::min(probe.traj_arc, 0.0003f);
            std::vector<Session> probe_fleet =
                buildFleet(probe, registry);
            const Session &s = probe_fleet.front();
            TileRenderer renderer(s.config().tile);
            TemporalCache cache;
            cache.options.every = 1;
            cache.options.keep_exact = true;
            StandardFlowStats st;
            const Camera &cam0 = s.scene().trajectory->frame(0);
            const Camera &cam1 = s.scene().trajectory->frame(1);
            (void)renderer.renderTemporal(*s.scene().cloud, cam0, st,
                                          cache);
            const Image cold = renderer.render(*s.scene().cloud, cam1, st);
            const Image warp = renderer.renderTemporal(
                *s.scene().cloud, cam1, st, cache, nullptr,
                /*force_warp=*/true);
            warp_floor_db = psnrDb(cold, warp);
            warp_ok = warp_floor_db >= 40.0;
            const Image half = renderer.render(
                *s.scene().cloud,
                cam1.scaledResolution(probe.degrade_render_scale), st);
            half_res_db = psnrDb(
                cold, upsampleNearest(half, cold.width(), cold.height()));
            std::printf("degrade fidelity (%s): warp %.2f dB (floor "
                        "40) %s, half-res %.2f dB recorded\n",
                        s.config().spec.name.c_str(),
                        std::isinf(warp_floor_db) ? 999.0 : warp_floor_db,
                        warp_ok ? "ok" : "CONTRACT VIOLATED",
                        std::isinf(half_res_db) ? 999.0 : half_res_db);
        }
        all_ok = all_ok && overload_ok && warp_ok;
    }

    // ---- JSON snapshot. ----
    std::ostringstream json;
    json.precision(10);
    json << "{\n  \"bench\": \"serve_throughput\",\n"
         << "  \"host\": " << bench::hostJson() << ",\n"
         << "  \"scale\": " << static_cast<double>(scale) << ",\n"
         << "  \"sessions\": " << sessions << ",\n"
         << "  \"frames\": " << frames << ",\n"
         << "  \"workers\": " << workers << ",\n"
         << "  \"hardware_workers\": " << ThreadPool::hardwareWorkers()
         << ",\n  \"renderer_mix\": \"" << renderers_arg << "\",\n"
         << "  \"scenes\": \"" << scenes_arg << "\",\n"
         << "  \"temporal\": " << temporal << ",\n"
         << "  \"traj_arc\": " << traj_arc << ",\n"
         << "  \"shared_clouds\": " << registry.cloudCount() << ",\n"
         << "  \"serial\": {\"wall_ms\": " << base.wall_ms
         << ", \"fleet_fps\": " << base.fleet_fps << "},\n"
         << "  \"policies\": [\n";
    for (std::size_t i = 0; i < policy_rows.size(); ++i) {
        const PolicyRow &r = policy_rows[i];
        json << "    {\"policy\": \"" << r.policy
             << "\", \"wall_ms\": " << r.wall_ms
             << ", \"fleet_fps\": " << r.fleet_fps
             << ", \"speedup_vs_serial\": " << r.speedup
             << ", \"checksums_match\": "
             << (r.checksums_match ? "true" : "false")
             << ",\n     \"latency_ms\": " << aggregateJson(r.latency)
             << ",\n     \"queue_wait_ms\": " << aggregateJson(r.queue_wait)
             << ",\n     \"queue_depth\": " << aggregateJson(r.queue_depth)
             << ", \"sheds\": " << r.sheds
             << ",\n     \"miss_attribution\": " << r.miss_attribution
             << "}" << (i + 1 < policy_rows.size() ? "," : "") << "\n";
    }
    json << "  ]";
    if (temporal >= 1) {
        json << ",\n  \"temporal_fidelity\": [\n";
        for (std::size_t i = 0; i < temporal_checks.size(); ++i) {
            const TemporalCheck &c = temporal_checks[i];
            json << "    {\"scene\": \"" << c.scene
                 << "\", \"min_psnr_db\": "
                 << (std::isinf(c.min_psnr_db) ? 999.0 : c.min_psnr_db)
                 << ", \"bit_identical\": "
                 << (c.bit_identical ? "true" : "false")
                 << ", \"contract_ok\": " << (c.ok ? "true" : "false")
                 << "}" << (i + 1 < temporal_checks.size() ? "," : "")
                 << "\n";
        }
        json << "  ]";
    }
    json << paced_json;
    if (!overload_rows.empty()) {
        json << ",\n  \"goodput_curve\": [\n";
        for (std::size_t i = 0; i < overload_rows.size(); ++i) {
            const OverloadRow &r = overload_rows[i];
            json << "    {\"offered_multiplier\": " << r.multiplier
                 << ", \"offered_fps\": " << r.offered_fps
                 << ", \"offered_frames\": " << r.offered_frames
                 << ", \"drop_only_goodput_fps\": " << r.drop_goodput
                 << ", \"ladder_goodput_fps\": " << r.ladder_goodput
                 << ", \"drop_only_on_time\": " << r.drop_on_time
                 << ", \"ladder_on_time\": " << r.ladder_on_time
                 << ", \"drop_only_miss_rate\": " << r.drop_miss
                 << ", \"ladder_miss_rate\": " << r.ladder_miss
                 << ", \"ladder_beats_drop\": "
                 << (r.ladder_beats_drop ? "true" : "false") << "}"
                 << (i + 1 < overload_rows.size() ? "," : "") << "\n";
        }
        json << "  ]";
        json << ",\n  \"degradation\": "
             << (degradation_json.empty() ? "{}" : degradation_json);
        json << ",\n  \"degrade_fidelity\": {\"warp_min_psnr_db\": "
             << (std::isinf(warp_floor_db) ? 999.0 : warp_floor_db)
             << ", \"warp_ok\": " << (warp_ok ? "true" : "false")
             << ", \"half_res_psnr_db\": "
             << (std::isinf(half_res_db) ? 999.0 : half_res_db)
             << ", \"overload_ok\": "
             << (overload_ok ? "true" : "false") << "}";
    }
    // Per-stage summaries + metrics registry for the whole run (all
    // policies combined).
    json << ",\n  \"observability\": " << obs::observabilityJson();
    json << ",\n  \"checksums_ok\": " << (all_ok ? "true" : "false")
         << "\n}\n";

    if (out_path != "-") {
        if (!ResultTable::writeFile(out_path, json.str())) {
            std::fprintf(stderr, "failed to write %s\n",
                         out_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", out_path.c_str());
    }
    if (!trace_path.empty()) {
        // Workers are quiescent (scheduler runs have returned), so the
        // recorder's rings are safe to read.
        if (!ResultTable::writeFile(trace_path, obs::traceJson())) {
            std::fprintf(stderr, "failed to write %s\n",
                         trace_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", trace_path.c_str());
    }
    if (!temporal_ok)
        std::fprintf(stderr, "ERROR: temporal mode violated its "
                             "fidelity contract\n");
    else if (!overload_ok)
        std::fprintf(stderr,
                     "ERROR: degradation ladder goodput did not beat "
                     "drop-only shedding at >= 2x overload\n");
    else if (!warp_ok)
        std::fprintf(stderr, "ERROR: forced-warp tier under the 40 dB "
                             "PSNR floor\n");
    else if (!all_ok)
        std::fprintf(stderr, "ERROR: scheduled checksums diverged from "
                             "the serial baseline\n");
    return all_ok ? 0 : 1;
}
