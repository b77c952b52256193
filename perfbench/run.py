#!/usr/bin/env python3
"""Run one gcc3d benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gcc3d checkout.  The script builds the
benchmark (perfbench/CMakeLists.txt, which compiles the gcc3d library
from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the workload, checks that the binary's
metric dictionary matches BENCHMARK.json, and writes the result with
its provenance (commit, compiler, SIMD backend, CPU, seed, workload
definition) to perfbench/results/.  The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1).  A traced run also writes a Chrome trace next to its
result and reports how far tracing moved the end-to-end metrics
against the untraced results already stored for the same source.

Exit status: 0 when every output check passed, 1 when an operation
failed (the result line is still printed), 2 when the benchmark
could not be built or run (no result line).
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
BINARY_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log_path):
    with open(log_path, "ab") as log:
        return subprocess.run(cmd, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", BENCH_DIR, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"], log)
        if rc != 0:
            die(f"cmake configure failed (see {log})")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_logged(["cmake", "--build", out, "-j", jobs,
                     "--target", "gcc3d_perfbench"], log)
    if rc != 0:
        die(f"build failed (see {log})")
    return os.path.join(out, "gcc3d_perfbench")


def load_benchmark_json():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def check_dictionary(binary, spec):
    """The binary's metric tables must be exactly BENCHMARK.json's."""
    listing = json.loads(subprocess.run(
        [binary, "--list"], check=True, capture_output=True,
        text=True).stdout)
    problems = []
    if listing["workloads"] != [w["name"] for w in spec["workloads"]]:
        problems.append("workload names differ")
    for table in ("end_to_end", "per_layer"):
        ours = [(m["name"], m["unit"], m["better"]) for m in listing[table]]
        theirs = [(m["name"], m["unit"], m["better"]) for m in spec[table]]
        if ours != theirs:
            problems.append(f"{table} metrics differ")
    if problems:
        die("BENCHMARK.json does not match the benchmark: " +
            "; ".join(problems))


def git(*args):
    try:
        r = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                           text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """sha256 over the library and benchmark sources, for grouping runs."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt"),
             os.path.join(ROOT, "BENCHMARK.json")]
    for pattern in ("src/**/*", "perfbench/*", "perfbench/src/*",
                    "perfbench/tests/*"):
        files += glob.glob(os.path.join(ROOT, pattern), recursive=True)
    for path in sorted(set(files)):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance():
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_commit": commit or "none (not a git checkout)",
        "git_dirty": (status != "") if commit and status is not None
        else None,
        "source_digest": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def tracing_overhead(result):
    """Traced minus untraced median of each end-to-end metric, against
    the untraced results stored for the same workload and source."""
    digest = result["provenance"]["source_digest"]
    untraced = []
    for path in glob.glob(os.path.join(RESULTS_DIR, "*.json")):
        if path.endswith(".trace.json"):
            continue
        try:
            with open(path) as f:
                r = json.load(f)
        except (OSError, ValueError):
            continue
        if (r.get("workload") == result["workload"] and not r.get("trace")
                and r.get("provenance", {}).get("source_digest") == digest):
            untraced.append(r)
    if not untraced:
        return None
    out = {"untraced_runs": len(untraced), "metrics": {}}
    for name, traced in result["end_to_end"].items():
        values = [r["end_to_end"][name] for r in untraced
                  if r["end_to_end"].get(name) is not None]
        if not values or traced is None:
            continue
        base = statistics.median(values)
        out["metrics"][name] = {
            "traced": traced, "untraced_median": base,
            "difference": traced - base,
            "relative": (traced - base) / base if base else None}
    return out


def print_table(title, values, units, samples):
    print(f"{title}:")
    for name, value in values.items():
        n = samples.get(name.rsplit("_p", 1)[0], {}).get("n")
        note = f"  (n={n})" if n is not None and "_p" in name else ""
        shown = "nan" if value is None else f"{value:.6g}"
        print(f"  {name:38s} {shown:>14s} {units[name]}{note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = load_benchmark_json()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    binary = build()
    check_dictionary(binary, spec)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(
        RESULTS_DIR, time.strftime("%Y%m%dT%H%M%S", time.gmtime()) +
        f"-{os.getpid()}-{args.workload}-s{args.seed}-t{args.trace}")
    out_path = stem + ".json"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    if args.trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=BINARY_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {BINARY_TIMEOUT_S} s")
    if rc not in (0, 1) or not os.path.exists(out_path):
        die(f"{args.workload} exited with status {rc} and no result")
    with open(out_path) as f:
        result = json.load(f)
    result["provenance"] = provenance()
    result["command"] = ["python3", "perfbench/run.py"] + sys.argv[1:]
    table = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[table]}
    values = {name: result[table].get(name) for name in units}
    finite = all(v is not None and math.isfinite(v) for v in values.values())
    if not finite:
        result["correct"] = False
        result.setdefault("failures", []).append("a metric is not finite")
    if args.trace:
        result["tracing_overhead"] = tracing_overhead(result)
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1)

    print(f"gcc3d perfbench: {args.workload} seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, result {out_path}")
    print_table(table, values, units, result.get("samples", {}))
    if args.workload == "sim-batch":
        d = result["details"]
        p = d["paper_comparison"]
        print(f"sim digest {d['sim_digest']} "
              f"({d['distinct_jobs_covered']}/{d['distinct_jobs']} jobs); "
              f"GCC vs GSCore area-normalized speedup "
              f"{p['area_normalized_speedup_geomean']:.2f}x vs paper "
              f"{p['paper_fig10_geomean']:.2f}x "
              f"(error {100 * p['relative_error']:+.0f}%, scale "
              f"{p['scale']:g}, not the paper's)")
    if args.trace:
        print("self time by span (ms): " + ", ".join(
            f"{name} {t['self_ms']:.1f}" for name, t in sorted(
                result.get("self_time_ms", {}).items(),
                key=lambda kv: -kv[1]["self_ms"])))
    if args.trace and result.get("tracing_overhead"):
        print("tracing overhead (traced - untraced median, "
              f"{result['tracing_overhead']['untraced_runs']} untraced runs):")
        for name, o in result["tracing_overhead"]["metrics"].items():
            rel = o["relative"]
            print(f"  {name:38s} {o['difference']:+.6g}"
                  + (f" ({100 * rel:+.1f}%)" if rel is not None else ""))
    for failure in result.get("failures", []):
        print(f"FAILED: {failure}")

    line = {
        "correct": bool(result["correct"]),
        "attempted": int(max(1, result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        die(f"{type(e).__name__}: {e}")
