#include "metrics.h"

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "gsmath/simd.h"
#include "obs/obs_config.h"
#include "stats.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> table = {
        {"setup_s", "s", false},
        {"peak_rss_mb", "MB", false},
        {"tile_frame_ms_p50", "ms", false},
        {"tile_frame_ms_p90", "ms", false},
        {"gw_frame_ms_p50", "ms", false},
        {"gw_frame_ms_p90", "ms", false},
        {"latency_ms_p50", "ms", false},
        {"latency_ms_p90", "ms", false},
        {"goodput_fps", "1/s", true},
        {"on_time_frac", "frac", true},
        {"throughput_fps", "1/s", true},
    };
    return table;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> table = {
        // scene
        {"scene.generate_ms", "ms", false},
        // render: standalone stage calls
        {"render.preprocess_ms", "ms", false},
        {"render.soa_build_ms", "ms", false},
        // render: stage wall clock returned by the renderers
        {"render.tile.pre_ms", "ms", false},
        {"render.tile.bin_ms", "ms", false},
        {"render.tile.raster_ms", "ms", false},
        {"render.gw.pre_ms", "ms", false},
        {"render.gw.bin_ms", "ms", false},
        {"render.gw.raster_ms", "ms", false},
        // render: work counts (exact)
        {"render.tile.kv_pairs", "count", false},
        {"render.tile.sorted_keys", "count", false},
        {"render.tile.tile_fetches", "count", false},
        {"render.tile.alpha_evals", "count", false},
        {"render.tile.blend_ops", "count", false},
        {"render.gw.stage2_invocations", "count", false},
        {"render.gw.sh_eval_invocations", "count", false},
        {"render.gw.bin_records", "count", false},
        {"render.gw.alpha_evals", "count", false},
        {"render.gw.blend_ops", "count", false},
        // render: ratios of counts
        {"render.tile.loads_per_gaussian", "ratio", false},
        {"render.tile.blend_per_alpha", "ratio", true},
        {"render.gw.groups_processed_frac", "frac", false},
        {"render.gw.sh_skip_frac", "frac", true},
        {"render.gw.blend_per_alpha", "ratio", true},
        // render: cost per unit of work
        {"render.tile.ns_per_kv_pair", "ns", false},
        {"render.tile.ns_per_alpha_eval", "ns", false},
        {"render.gw.ns_per_alpha_eval", "ns", false},
        // render: temporal coherence
        {"render.temporal.tiles_reused_frac", "frac", true},
        {"render.temporal.warped_frames", "count", true},
        {"render.warp_ms_p50", "ms", false},
        // runtime
        {"runtime.tile.pool_speedup", "x", true},
        {"runtime.gw.pool_speedup", "x", true},
        {"runtime.serve_worker_util", "frac", true},
        {"runtime.sweep_worker_util", "frac", true},
        // serve: per-frame records
        {"serve.queue_wait_ms_p50", "ms", false},
        {"serve.queue_wait_ms_p90", "ms", false},
        {"serve.render_ms_p50", "ms", false},
        {"serve.render_ms_p90", "ms", false},
        {"serve.pre_ms_p50", "ms", false},
        {"serve.bin_ms_p50", "ms", false},
        {"serve.raster_ms_p50", "ms", false},
        // serve: shedding, ladder, miss attribution
        {"serve.shed_frac", "frac", false},
        {"serve.tier.full_frac", "frac", true},
        {"serve.tier.warp_frac", "frac", false},
        {"serve.tier.half_res_frac", "frac", false},
        {"serve.degrade_transitions", "count", false},
        {"serve.miss.queue_frac", "frac", false},
        {"serve.miss.raster_frac", "frac", false},
        // core / gscore / sim: simulated, deterministic
        {"core.gcc_cycles", "cycles", false},
        {"gscore.cycles", "cycles", false},
        {"core.gcc_dram_bytes", "B", false},
        {"gscore.dram_bytes", "B", false},
        {"core.gcc_energy_mj", "mJ", false},
        {"sim.gcc_vs_gscore_speedup", "x", true},
        {"sim.host_ms_per_job", "ms", false},
        // the tracer itself
        {"trace.spans", "count", false},
    };
    return table;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    for (const char c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '.' && c != '-')
            return false;
    return true;
}

std::vector<std::string>
metricTableErrors()
{
    std::vector<std::string> errors;
    std::set<std::string> seen;
    for (const auto *table : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &m : *table) {
            if (!validMetricName(m.name))
                errors.push_back(std::string("bad name: ") + m.name);
            if (!seen.insert(m.name).second)
                errors.push_back(std::string("duplicate name: ") + m.name);
        }
    if (endToEndMetrics().empty() ||
        endToEndMetrics().size() > kMaxEndToEnd)
        errors.push_back("end-to-end table size out of [1, 16]");
    if (perLayerMetrics().empty() ||
        perLayerMetrics().size() > kMaxPerLayer)
        errors.push_back("per-layer table size out of [1, 128]");
    return errors;
}

void
RunResult::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(why);
}

void
RunResult::timing(std::map<std::string, double> &into,
                  const std::string &prefix,
                  const std::vector<double> &values)
{
    const TimingSummary s = summarize(values);
    into[prefix + "_p50"] = s.p50;
    into[prefix + "_p90"] = s.p90;
    JsonObject info;
    info.add("n", static_cast<std::int64_t>(s.n))
        .add("tail_pct", s.tail_pct)
        .add("tail_value", s.tail_value)
        .add("p90_has_10_beyond", s.tail_pct >= 90.0);
    samples.add(prefix, info);
}

void
RunResult::ratio(const std::string &name, double num, double den)
{
    per_layer[name] = den != 0.0 ? num / den : 0.0;
    JsonObject base;
    base.add("numerator", num).add("denominator", den);
    bases.add(name, base);
}

JsonObject
buildInfo()
{
    JsonObject b;
    b.add("compiler", PERFBENCH_COMPILER)
        .add("build_type", PERFBENCH_BUILD_TYPE)
        .add("simd_backend", gcc3d::simd::backendName())
        .add("simd_width", static_cast<int>(gcc3d::simd::kWidth))
        .add("gcc3d_obs", GCC3D_OBS_ENABLED ? "ON" : "OFF")
        .add("hardware_concurrency",
             static_cast<int>(std::thread::hardware_concurrency()));
    return b;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream in(line.substr(6));
            double kb = 0.0;
            in >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

} // namespace perfbench
