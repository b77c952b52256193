/**
 * @file
 * Shared helpers for the figure/table reproduction harness.
 *
 * Every binary in bench/ regenerates one table or figure of the
 * paper's evaluation section (see DESIGN.md §3) and prints the same
 * rows/series the paper reports, plus the paper's published values
 * for comparison where applicable.
 */

#ifndef GCC3D_BENCH_BENCH_UTIL_H
#define GCC3D_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gsmath/simd.h"
#include "runtime/flags.h"
#include "runtime/result_table.h"
#include "runtime/sweep_runner.h"
#include "scene/scene_presets.h"

namespace gcc3d::bench {

/** Upper bound of every thread/worker flag, so a typo cannot ask for
 *  a huge pool. */
constexpr int kMaxWorkers = 1024;

/**
 * Host metadata as a JSON object fragment, embedded in every
 * committed BENCH_*.json header so snapshot numbers are interpretable
 * later: thread-scaling rows that all read ~1.0x mean something very
 * different on a 1-core container than on a workstation, and SIMD
 * speedups depend on the compiled backend.
 */
inline std::string
hostJson()
{
    return "{\"hardware_concurrency\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"simd_backend\": \"" + simd::backendName() +
           "\", \"simd_width\": " + std::to_string(simd::kWidth) + "}";
}

/**
 * Scene population scale for harness runs: the GCC3D_SCALE
 * environment variable in (0, 1], default 0.25, which keeps the full
 * figure suite tractable on one core while preserving every
 * population ratio (1.0 = paper-scale counts).  A malformed or
 * out-of-range value exits 2.
 */
inline float
benchScale()
{
    float scale = 0.25f;
    flags::fromEnv("GCC3D_SCALE", flags::Range().above(0).max(1), &scale);
    return scale;
}

/**
 * Worker threads for harness sweeps: the GCC3D_WORKERS environment
 * variable in [0, 1024], where 0 or unset means every hardware
 * thread.  The results are deterministic regardless (see
 * SweepRunner); workers only change wall-clock time.
 */
inline int
benchWorkers()
{
    int workers = 0;
    flags::fromEnv("GCC3D_WORKERS", flags::Range().min(0).max(kMaxWorkers),
                   &workers);
    return workers > 0 ? workers : ThreadPool::hardwareWorkers();
}

/**
 * Run @p spec on the parallel runtime with the bench worker count.
 * Failed jobs are reported loudly on stderr: a figure printed from an
 * incomplete sweep would silently misrepresent the paper's data.
 */
inline ResultTable
runSweep(const SweepSpec &spec)
{
    SweepOptions options;
    options.workers = benchWorkers();
    SweepRunner runner(options);
    ResultTable table(runner.run(spec));
    if (table.failedCount() > 0) {
        std::fprintf(stderr, "WARNING: %zu of %zu sweep jobs failed; "
                             "the figure below is incomplete:\n",
                     table.failedCount(), table.rows().size());
        for (const JobResult &r : table.rows())
            if (!r.ok)
                std::fprintf(stderr, "  %s/%s/%s/f%d: %s\n",
                             r.scene.c_str(), r.variant.c_str(),
                             backendName(r.backend).c_str(), r.frame,
                             r.error.c_str());
    }
    return table;
}

using flags::splitList;

/**
 * Parse a --scenes CLI argument: "all" expands to every preset,
 * otherwise a comma-separated list of scene names.  Throws
 * std::invalid_argument on unknown names.
 */
inline std::vector<SceneId>
parseSceneList(const std::string &arg)
{
    if (arg == "all")
        return allScenes();
    std::vector<SceneId> out;
    for (const std::string &name : splitList(arg))
        out.push_back(sceneFromName(name));
    return out;
}

/** The successful rows of @p table that ran config variant @p v. */
inline std::vector<JobResult>
rowsOfVariant(const ResultTable &table, const ConfigVariant &v)
{
    std::vector<JobResult> out;
    for (const JobResult &r : table.rows())
        if (r.ok && r.variant == v.name)
            out.push_back(r);
    return out;
}

/** Geometric mean of a series. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(v.size()));
}

/** Print the standard harness banner for a figure/table binary. */
inline void
banner(const std::string &id, const std::string &what, float scale)
{
    std::printf("==================================================="
                "=============\n");
    std::printf("%s — %s\n", id.c_str(), what.c_str());
    std::printf("scene population scale: %.2f of paper-scale "
                "(GCC3D_SCALE to change)\n", scale);
    std::printf("==================================================="
                "=============\n");
}

/** Wall-clock milliseconds elapsed since @p start. */
inline double
nowMsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Horizontal separator. */
inline void
rule()
{
    std::printf("-----------------------------------------------------"
                "-----------\n");
}

} // namespace gcc3d::bench

#endif // GCC3D_BENCH_BENCH_UTIL_H
