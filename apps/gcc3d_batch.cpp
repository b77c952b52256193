/**
 * @file
 * Batch-simulation CLI: expand a (scene x frame x variant x backend)
 * sweep from flags, run it on the parallel runtime, print the result
 * table, optionally export CSV/JSON.
 *
 * Examples:
 *   gcc3d_batch --scenes lego,train --backends gcc,gscore --frames 8
 *   gcc3d_batch --scenes all --workers 8 --csv sweep.csv
 *   gcc3d_batch --scenes train --buffer-kb 32,128,512 --frames 4
 *
 * Determinism: the result table is a pure function of the sweep
 * flags; --workers only changes wall-clock time.
 */

#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/trace_export.h"
#include "runtime/flags.h"
#include "runtime/result_table.h"
#include "runtime/sweep_runner.h"
#include "scene/scene_presets.h"

using namespace gcc3d;
using gcc3d::bench::splitList;

int
main(int argc, char **argv)
{
    SweepSpec spec;
    spec.scale = bench::benchScale();
    std::string scenes_arg = "lego";
    std::string backends_arg = "gcc,gscore";
    std::vector<double> buffer_kb;
    std::string cache_dir;
    std::string csv_path;
    std::string json_path;
    std::string trace_path;
    std::string metrics_path;
    int workers = 0;
    bool quiet = false;

    flags::Parser cli;
    cli.add("--scenes LIST", &scenes_arg,
            "comma-separated scene names, or 'all' (palace, lego, train, "
            "truck, playroom, drjohnson)");
    cli.add("--backends LIST", &backends_arg, "subset of gcc,gscore,gpu");
    cli.add("--frames N", &spec.frames, "trajectory frames per scene")
        .min(1);
    cli.add("--scale F", &spec.scale,
            "population scale; GCC3D_SCALE sets the default")
        .above(0).max(1);
    cli.add("--workers N", &workers,
            "worker threads; 0 = all hardware threads")
        .min(0).max(bench::kMaxWorkers);
    cli.add("--buffer-kb LIST", &buffer_kb,
            "GCC image-buffer capacity sweep (KB); each value becomes a "
            "config variant")
        .above(0);
    cli.add("--cache-dir DIR", &cache_dir,
            ".gsc scene cache; repeated runs skip scene generation "
            "(results unchanged)");
    cli.add("--csv FILE", &csv_path, "write per-job results as CSV");
    cli.add("--json FILE", &json_path, "write per-job results as JSON");
    cli.add("--trace FILE", &trace_path,
            "write a Chrome/Perfetto trace-event JSON of the sweep");
    cli.add("--metrics-out FILE", &metrics_path,
            "write the observability block (stage summaries + metrics "
            "registry) as JSON");
    cli.add("--quiet", &quiet, "suppress the per-job table");
    cli.parseOrExit(argc, argv);

    try {
        for (SceneId id : bench::parseSceneList(scenes_arg))
            spec.addScene(id);
        spec.backends.clear();
        for (const std::string &name : splitList(backends_arg))
            spec.backends.push_back(backendFromName(name));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (spec.scenes.empty() || spec.backends.empty()) {
        std::fprintf(stderr, "empty scene or backend list\n");
        return 2;
    }
    if (!buffer_kb.empty()) {
        // The buffer capacity only exists in GccConfig; crossing the
        // variants with other backends would re-run bit-identical
        // simulations once per value.
        if (spec.backends.size() > 1 ||
            spec.backends[0] != Backend::Gcc) {
            std::fprintf(stderr, "--buffer-kb varies a GCC-only "
                                 "parameter; restricting backends to "
                                 "gcc\n");
            spec.backends = {Backend::Gcc};
        }
        spec.variants.clear();
        for (double kb : buffer_kb) {
            char name[48];
            std::snprintf(name, sizeof(name), "buf=%gKB", kb);
            ConfigVariant v;
            v.name = name;
            v.gcc.image_buffer_kb = kb;
            spec.variants.push_back(v);
        }
    }

    SweepOptions options;
    options.workers = workers > 0 ? workers : ThreadPool::hardwareWorkers();
    options.scene_cache_dir = cache_dir;
    std::printf("gcc3d_batch: %zu jobs (%zu scenes x %d frames x %zu "
                "variants x %zu backends), %d workers, scale %.2f\n",
                spec.jobCount(), spec.scenes.size(), spec.frames,
                spec.variants.size(), spec.backends.size(),
                options.workers, static_cast<double>(spec.scale));

    auto start = std::chrono::steady_clock::now();
    SweepRunner runner(options);
    ResultTable table(runner.run(spec));
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();

    if (!quiet)
        table.print();

    // Matched backend comparisons against the first backend listed.
    for (std::size_t i = 1; i < spec.backends.size(); ++i) {
        auto cmp = table.compare(spec.backends[0], spec.backends[i]);
        if (cmp.empty())
            continue;
        std::vector<double> speedups;
        for (const auto &c : cmp)
            speedups.push_back(c.speedup);
        Aggregate agg = aggregate(std::move(speedups));
        std::printf("%s vs %s: mean speedup %.2fx over %zu matched jobs\n",
                    backendName(spec.backends[i]).c_str(),
                    backendName(spec.backends[0]).c_str(), agg.mean,
                    agg.count);
    }

    // Summed per-job time over sweep wall time = average number of
    // jobs in flight.  Real speedup needs real cores: on an
    // oversubscribed host jobs time-slice and their individual times
    // inflate, so this measures concurrency, not throughput gain.
    double busy_ms = 0.0;
    for (const JobResult &r : table.rows())
        busy_ms += r.wall_ms;
    std::printf("wall %.0f ms, summed job time %.0f ms (avg jobs in "
                "flight %.2f)\n",
                wall_ms, busy_ms, wall_ms > 0.0 ? busy_ms / wall_ms : 0.0);

    if (!csv_path.empty() &&
        !ResultTable::writeFile(csv_path, table.toCsv())) {
        std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
        return 1;
    }
    if (!json_path.empty() &&
        !ResultTable::writeFile(json_path, table.toJson())) {
        std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
        return 1;
    }
    // Export after run() returned (workers joined, rings quiescent).
    if (!trace_path.empty() &&
        !ResultTable::writeFile(trace_path, obs::traceJson())) {
        std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
        return 1;
    }
    if (!metrics_path.empty() &&
        !ResultTable::writeFile(metrics_path, obs::observabilityJson())) {
        std::fprintf(stderr, "failed to write %s\n", metrics_path.c_str());
        return 1;
    }
    return table.failedCount() == 0 ? 0 : 1;
}
