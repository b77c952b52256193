/**
 * @file
 * The benchmark's metric dictionary and the record one run produces.
 *
 * Every workload reports every end-to-end metric (untraced runs) and
 * every per-layer metric (traced runs); METRICS.md documents what
 * each one times, on which workload it is meaningful and which
 * end-to-end metric a per-layer metric should move.  A per-layer
 * metric of a layer a workload does not exercise reads 0.
 */
#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json.h"

namespace perfbench {

struct MetricDef
{
    const char *name;
    const char *unit;
    bool higher_is_better;
};

/** End-to-end metrics, in BENCHMARK.json order. */
const std::vector<MetricDef> &endToEndMetrics();
/** Per-layer metrics, in BENCHMARK.json order. */
const std::vector<MetricDef> &perLayerMetrics();

/** Limits BENCHMARK.json places on the two tables. */
constexpr std::size_t kMaxEndToEnd = 16;
constexpr std::size_t kMaxPerLayer = 128;

/** True iff @p name is 1-64 of [A-Za-z0-9_.-], starting alphanumeric. */
bool validMetricName(const std::string &name);

/**
 * Everything wrong with the two tables (bad names, duplicates across
 * both, too many entries); empty when they are well formed.
 */
std::vector<std::string> metricTableErrors();

/** What one invocation measured. */
struct RunResult
{
    std::int64_t attempted = 0;  ///< operations issued
    std::int64_t failed = 0;     ///< wrong output, exception, broken books
    std::vector<std::string> failures;  ///< first messages, for the log
    std::map<std::string, double> end_to_end;
    std::map<std::string, double> per_layer;
    JsonObject samples;  ///< per timing metric: sample count, tail rule
    JsonObject bases;    ///< per ratio metric: numerator, denominator
    JsonObject details;  ///< workload-specific extras

    /** Count one failed operation with its reason. */
    void fail(const std::string &why);
    /**
     * Set @p prefix_p50 and @p prefix_p90 in @p into from @p values,
     * recording the sample count and the tail rule's percentile.
     */
    void timing(std::map<std::string, double> &into,
                const std::string &prefix, const std::vector<double> &values);
    /** Set ratio metric @p name = num / den and record its base. */
    void ratio(const std::string &name, double num, double den);
};

/** Compiler, build type, SIMD backend and obs switch of this binary. */
JsonObject buildInfo();

/** Peak resident set of this process so far, in MB (VmHWM). */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
