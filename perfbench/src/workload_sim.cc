/**
 * @file
 * sim-batch: the figure-regeneration sweep.  SweepRunner jobs of the
 * GCC and GSCore cycle models over all six presets run closed-loop on
 * a 4-worker pool, one job per worker at a time; each job renders
 * serially.  Simulated outputs are deterministic, so every repeat of
 * a job must reproduce its first result exactly.
 */
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>

#include "common.h"
#include "inputs.h"
#include "runtime/sweep_runner.h"
#include "workloads.h"

namespace perfbench {

using namespace gcc3d;

namespace {

/** Paper Fig. 10: geomean area-normalized GCC speedup over GSCore. */
constexpr double kPaperSpeedup = 5.24;

struct JobRun
{
    std::size_t job = 0;  ///< index into the expanded sweep
    double start_ms = 0.0;
    double end_ms = 0.0;
    JobResult result;
};

/** FNV-1a over the simulated fields of @p r. */
void
digest(std::uint64_t &h, const JobResult &r)
{
    const auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001B3ULL;
        }
    };
    mix(&r.cycles, sizeof r.cycles);
    mix(&r.dram_bytes, sizeof r.dram_bytes);
    mix(&r.energy_mj, sizeof r.energy_mj);
    mix(&r.fps, sizeof r.fps);
    mix(&r.image_checksum, sizeof r.image_checksum);
}

} // namespace

RunResult
runSimBatch(const RunOptions &opt, Tracer &tracer)
{
    RunResult res;
    ThreadPool pool(kWorkers);
    SweepSpec spec;
    for (const SceneId id : allScenes())
        spec.addScene(id);
    spec.backends = {Backend::Gcc, Backend::Gscore};
    spec.frames = kSimFrames;
    spec.scale = kScale;
    const std::vector<SimJob> jobs = expandSweep(spec);
    const std::vector<std::size_t> order = seededOrder(jobs.size(), opt.seed);
    std::map<std::string, std::size_t> scene_index;
    for (std::size_t s = 0; s < spec.scenes.size(); ++s)
        scene_index[spec.scenes[s].name] = s;

    // ---- Set-up: build every preset's scene data in parallel. ----
    std::vector<SceneData> scenes(spec.scenes.size());
    std::vector<double> setup_ms, generate_ms;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Span setup(tracer, "setup", rep);
        const double t0 = nowMs();
        std::vector<double> gen(scenes.size(), 0.0);
        std::vector<std::function<void()>> tasks;
        for (std::size_t s = 0; s < scenes.size(); ++s)
            tasks.push_back([&, s] {
                Span span(tracer, "scene.generate", rep, setup.handle());
                const double g0 = nowMs();
                scenes[s] = SweepRunner::buildScene(spec.scenes[s], kScale,
                                                    kSimFrames);
                gen[s] = nowMs() - g0;
            });
        runAll(pool, tasks);
        setup_ms.push_back(nowMs() - t0);
        double total = 0.0;
        for (const double g : gen)
            total += g;
        generate_ms.push_back(total);
    }

    // ---- Measured window: kWorkers closed-loop clients. ----
    std::mutex mutex;
    std::vector<JobRun> runs;  // guarded by mutex
    std::atomic<std::size_t> next{0};
    const double start = nowMs();
    const double deadline = start + opt.seconds * 1000.0;
    {
        std::vector<std::function<void()>> clients;
        for (int w = 0; w < kWorkers; ++w)
            clients.push_back([&] {
                while (nowMs() < deadline) {
                    const std::size_t k = next.fetch_add(1);
                    JobRun run;
                    run.job = order[k % order.size()];
                    const SimJob &job = jobs[run.job];
                    Span span(tracer, "sim.job", static_cast<std::int64_t>(k));
                    span.count("job", job.id);
                    run.start_ms = nowMs();
                    try {
                        run.result = SweepRunner::runJob(
                            job, scenes[scene_index.at(job.spec.name)]);
                    } catch (const std::exception &e) {
                        run.result.ok = false;
                        run.result.error = e.what();
                    }
                    run.end_ms = nowMs();
                    span.count("cycles",
                               static_cast<double>(run.result.cycles));
                    std::lock_guard<std::mutex> lock(mutex);
                    runs.push_back(std::move(run));
                }
            });
        runAll(pool, clients);
    }
    double last = start;
    for (const JobRun &r : runs)
        last = std::max(last, r.end_ms);
    const double elapsed_s = (last - start) / 1000.0;
    const double peak_rss = peakRssMb();

    // ---- Checks: ok, and every repeat equal to the job's first run. ----
    std::vector<const JobResult *> first(jobs.size(), nullptr);
    std::vector<double> tile_ms, gw_ms, job_ms;
    double busy_ms = 0.0;
    for (const JobRun &r : runs) {
        ++res.attempted;
        const double ms = r.end_ms - r.start_ms;
        job_ms.push_back(ms);
        busy_ms += ms;
        (jobs[r.job].backend == Backend::Gscore ? tile_ms : gw_ms)
            .push_back(ms);
        const std::string what = "job " + std::to_string(r.job) + " (" +
                                 jobs[r.job].spec.name + "/" +
                                 backendName(jobs[r.job].backend) + ")";
        if (!r.result.ok) {
            res.fail(what + " failed: " + r.result.error);
            continue;
        }
        if (first[r.job] == nullptr)
            first[r.job] = &r.result;
        else if (!sameSimOutput(*first[r.job], r.result))
            res.fail(what + ": simulated output differs between repeats");
    }

    auto &e2e = res.end_to_end;
    e2e["setup_s"] = setupSeconds(setup_ms, 0.0);
    e2e["peak_rss_mb"] = peak_rss;
    res.timing(e2e, "tile_frame_ms", tile_ms);
    res.timing(e2e, "gw_frame_ms", gw_ms);
    res.timing(e2e, "latency_ms", job_ms);
    const double jobs_per_s = static_cast<double>(runs.size()) / elapsed_s;
    e2e["goodput_fps"] = jobs_per_s;  // one simulated frame per job
    e2e["throughput_fps"] = jobs_per_s;
    e2e["on_time_frac"] = 1.0;

    // ---- Per-layer: simulated totals over the distinct jobs. ----
    auto &pl = res.per_layer;
    pl["scene.generate_ms"] = percentile(generate_ms, 50.0);
    pl["sim.host_ms_per_job"] = percentile(job_ms, 50.0);
    res.ratio("runtime.sweep_worker_util", busy_ms,
              kWorkers * (last - start));
    double gcc_cycles = 0, gscore_cycles = 0, gcc_dram = 0, gscore_dram = 0,
           gcc_energy = 0, log_speedup = 0;
    int covered = 0, pairs = 0;
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const JobResult *r = first[j];
        if (r == nullptr)
            continue;
        ++covered;
        digest(h, *r);
        if (jobs[j].backend == Backend::Gcc) {
            gcc_cycles += static_cast<double>(r->cycles);
            gcc_dram += static_cast<double>(r->dram_bytes);
            gcc_energy += r->energy_mj;
        } else {
            gscore_cycles += static_cast<double>(r->cycles);
            gscore_dram += static_cast<double>(r->dram_bytes);
        }
    }
    // Area-normalized speedup per (scene, frame), as Fig. 10 reports
    // it: jobs of one scene/frame are adjacent, GCC first, in the
    // expansion order.
    for (std::size_t j = 0; j + 1 < jobs.size(); j += 2) {
        const JobResult *g = first[j];
        const JobResult *b = first[j + 1];
        if (g != nullptr && b != nullptr && g->fps > 0.0 && b->fps > 0.0 &&
            g->area_mm2 > 0.0) {
            log_speedup +=
                std::log(g->fps / b->fps * b->area_mm2 / g->area_mm2);
            ++pairs;
        }
    }
    const double speedup = pairs > 0 ? std::exp(log_speedup / pairs) : 0.0;
    pl["core.gcc_cycles"] = gcc_cycles;
    pl["gscore.cycles"] = gscore_cycles;
    pl["core.gcc_dram_bytes"] = gcc_dram;
    pl["gscore.dram_bytes"] = gscore_dram;
    pl["core.gcc_energy_mj"] = gcc_energy;
    pl["sim.gcc_vs_gscore_speedup"] = speedup;

    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    JsonObject paper;
    paper.add("area_normalized_speedup_geomean", speedup)
        .add("paper_fig10_geomean", kPaperSpeedup)
        .add("relative_error", (speedup - kPaperSpeedup) / kPaperSpeedup)
        .add("scale", static_cast<double>(kScale))
        .add("note",
             "population scale 0.1, not the paper's full-size models");
    res.details.add("sim_digest", std::string(hex))
        .add("distinct_jobs", static_cast<std::int64_t>(jobs.size()))
        .add("distinct_jobs_covered", covered)
        .add("jobs_run", static_cast<std::int64_t>(runs.size()))
        .add("paper_comparison", paper);
    return res;
}

} // namespace perfbench
