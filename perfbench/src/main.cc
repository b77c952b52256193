/**
 * @file
 * gcc3d_perfbench: run one benchmark workload and write its result.
 *
 *   gcc3d_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--out FILE] [--trace-out FILE]
 *   gcc3d_perfbench --list
 *
 * The result document (JSON, to --out or stdout) holds every
 * end-to-end metric, the per-layer metrics, sample counts, ratio
 * bases, the failure log and the build and workload description.
 * With --trace 1 the run records spans, writes them as Chrome trace
 * JSON to --trace-out and adds each span name's self time.  Exit
 * status: 0 when every output check passed, 1 when some operation
 * failed, 2 on a usage or set-up error.  perfbench/run.py wraps this
 * binary with the build, host provenance and the one-line summary.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "metrics.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "gcc3d_perfbench: %s\n"
                 "usage: gcc3d_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out FILE] [--trace-out FILE]\n"
                 "       gcc3d_perfbench --list\n",
                 why);
    return 2;
}

std::string
metricList(const std::vector<MetricDef> &table)
{
    std::vector<std::string> items;
    for (const MetricDef &m : table) {
        JsonObject o;
        o.add("name", m.name)
            .add("unit", m.unit)
            .add("better", m.higher_is_better ? "higher" : "lower");
        items.push_back(o.str());
    }
    return jsonArray(items);
}

std::string
listing()
{
    std::vector<std::string> names;
    for (const std::string &w : workloadNames())
        names.push_back(jsonString(w));
    JsonObject o;
    o.addRaw("workloads", jsonArray(names))
        .addRaw("end_to_end", metricList(endToEndMetrics()))
        .addRaw("per_layer", metricList(perLayerMetrics()));
    return o.str();
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    std::string out_path, trace_path;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--list") {
            std::printf("%s\n", listing().c_str());
            return 0;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            have_seconds = end != value.c_str() && *end == '\0' &&
                           opt.seconds > 0.0 && opt.seconds <= 3600.0;
        } else if (flag == "--trace") {
            have_trace = value == "0" || value == "1";
            opt.trace = value == "1";
        } else if (flag == "--out") {
            out_path = value;
        } else if (flag == "--trace-out") {
            trace_path = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds (in (0, 3600]) and "
                     "--trace 0|1 are required");
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == opt.workload;
    if (!known)
        return usage(("unknown workload " + opt.workload).c_str());

    Tracer tracer(opt.trace);
    RunResult res;
    try {
        res = runWorkload(opt, tracer);
    } catch (const std::exception &e) {
        // The workload could not complete: every operation is lost.
        std::fprintf(stderr, "gcc3d_perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        res.attempted = std::max<std::int64_t>(res.attempted, 1);
        res.fail(std::string("exception: ") + e.what());
    }
    // Every metric is reported; layers a workload does not exercise
    // read 0.
    for (const MetricDef &m : endToEndMetrics())
        res.end_to_end.emplace(m.name, 0.0);
    res.per_layer["trace.spans"] = static_cast<double>(tracer.spanCount());
    for (const MetricDef &m : perLayerMetrics())
        res.per_layer.emplace(m.name, 0.0);

    JsonObject doc;
    doc.add("workload", opt.workload)
        .add("seed", static_cast<std::int64_t>(opt.seed))
        .add("seconds", opt.seconds)
        .add("trace", opt.trace)
        .add("correct", res.failed == 0)
        .add("attempted", res.attempted)
        .add("failed", res.failed);
    std::vector<std::string> failures;
    for (const std::string &f : res.failures)
        failures.push_back(jsonString(f));
    doc.addRaw("failures", jsonArray(failures));
    JsonObject e2e, layer;
    for (const MetricDef &m : endToEndMetrics())
        e2e.add(m.name, res.end_to_end.at(m.name));
    for (const MetricDef &m : perLayerMetrics())
        layer.add(m.name, res.per_layer.at(m.name));
    doc.add("end_to_end", e2e)
        .add("per_layer", layer)
        .add("samples", res.samples)
        .add("ratio_bases", res.bases)
        .add("details", res.details)
        .add("workload_definition", workloadDefinition(opt.workload))
        .add("build", buildInfo());
    if (opt.trace) {
        JsonObject self;
        for (const auto &[name, t] : tracer.selfTimes()) {
            JsonObject o;
            o.add("spans", static_cast<std::int64_t>(t.spans))
                .add("total_ms", t.total_ms)
                .add("self_ms", t.self_ms);
            self.add(name, o);
        }
        doc.add("self_time_ms", self);
        if (!trace_path.empty()) {
            if (!writeFile(trace_path, tracer.chromeTraceJson()))
                return usage(("cannot write " + trace_path).c_str());
            doc.add("trace_file", trace_path);
        }
    }
    const std::string text = doc.str() + "\n";
    if (out_path.empty())
        std::fputs(text.c_str(), stdout);
    else if (!writeFile(out_path, text))
        return usage(("cannot write " + out_path).c_str());
    for (const std::string &f : res.failures)
        std::fprintf(stderr, "FAILED: %s\n", f.c_str());
    return res.failed == 0 ? 0 : 1;
}
