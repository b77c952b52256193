#!/usr/bin/env python3
"""Compare two sets of benchmark runs, for example parent and change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory of result files written by
perfbench/run.py (perfbench/results/*.json) or a glob pattern of
such files.  For every (workload, end-to-end metric) the tool prints
each side's median and quartiles, the pairs the change won and a
verdict; runs pair up by seed where both sides ran the same seed,
otherwise in run order.  Verdicts:

  improved    the change wins at least 9/10 of the pairs (ties count
              for neither) and the medians differ by more than the
              parent's own quartile spread;
  unresolved  the parent's quartile spread is wider than the metric's
              bound, unless every change run beats every parent run;
  worse       the change's median is worse than the parent's by more
              than the bound in BENCHMARK.json;
  no worse    otherwise.

Make the two sets alternately (parent, change, parent, ...): the
host's speed drifts over minutes, and two sets of the same code run
one after the other can read as a change.

Traced runs (--trace 1) give the per-layer deltas printed beside
them, and the tracing overhead per side.  sim-batch runs must all
carry the same simulated-output digest.  The tool only reports; it
is wired into no CI and always exits 0 unless its inputs are
unreadable.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(spec):
    paths = (glob.glob(os.path.join(spec, "*.json"))
             if os.path.isdir(spec) else glob.glob(spec))
    runs = []
    for path in sorted(paths):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            r = json.load(f)
        if "workload" in r and "end_to_end" in r:
            runs.append(r)
    runs.sort(key=lambda r: r.get("provenance", {}).get("timestamp_utc", ""))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    """Pair runs by seed where both sides have it, else by run order."""
    by_seed = {r["seed"]: r for r in change}
    if all(r["seed"] in by_seed for r in parent):
        return [(r, by_seed[r["seed"]]) for r in parent]
    return list(zip(parent, change))


def verdict(metric, p_runs, c_runs, bound, higher):
    p = [r["end_to_end"][metric] for r in p_runs]
    c = [r["end_to_end"][metric] for r in c_runs]
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    matched = pairs(p_runs, c_runs)
    won = sum(better(cr["end_to_end"][metric], pr["end_to_end"][metric])
              for pr, cr in matched)
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    all_better = all(better(x, y) for x in c for y in p)
    if (matched and won >= 0.9 * len(matched) and better(cm, pm)
            and abs(cm - pm) > p3 - p1):
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif better(pm, cm) and abs(cm - pm) > bound * abs(pm):
        v = "worse"
    else:
        v = "no worse"
    rel = (cm - pm) / abs(pm) if pm else 0.0
    return (f"{pm:11.5g} [{p1:.5g}, {p3:.5g}]", f"{cm:11.5g} [{c1:.5g}, "
            f"{c3:.5g}]", f"{100 * rel:+7.2f}%", f"{won}/{len(matched)}", v)


def layer_deltas(p_traced, c_traced, spec):
    rows = []
    for m in spec["per_layer"]:
        name = m["name"]
        p = [r["per_layer"][name] for r in p_traced]
        c = [r["per_layer"][name] for r in c_traced]
        pm, cm = statistics.median(p), statistics.median(c)
        if pm == 0 and cm == 0:
            continue
        rel = f"{100 * (cm - pm) / abs(pm):+8.2f}%" if pm else "      new"
        rows.append(f"    {name:36s} {pm:13.6g} -> {cm:13.6g} {rel}")
    if rows:
        print(f"  per-layer medians, traced runs ({len(p_traced)} parent, "
              f"{len(c_traced)} change):")
        print("\n".join(rows))


def tracing_overhead(label, traced, spec):
    """Median of the overhead run.py stored in each traced result."""
    stored = [r["tracing_overhead"]["metrics"] for r in traced
              if r.get("tracing_overhead")]
    parts = []
    for m in spec["end_to_end"]:
        rel = [o[m["name"]]["relative"] for o in stored
               if o.get(m["name"], {}).get("relative") is not None]
        if rel:
            parts.append(f"{m['name']} {100 * statistics.median(rel):+.1f}%")
    if parts:
        print(f"  tracing overhead ({label}, traced vs untraced median, "
              f"{len(stored)} traced runs): " + ", ".join(parts))


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(argv[1]), load(argv[2])
    if not parent or not change:
        print("compare: no result files on one side", file=sys.stderr)
        return 2
    for w in spec["workloads"]:
        name = w["name"]
        p_runs = [r for r in parent if r["workload"] == name and not r["trace"]]
        c_runs = [r for r in change if r["workload"] == name and not r["trace"]]
        p_tr = [r for r in parent if r["workload"] == name and r["trace"]]
        c_tr = [r for r in change if r["workload"] == name and r["trace"]]
        print(f"== {name}: {len(p_runs)} parent runs, {len(c_runs)} change "
              f"runs")
        if p_runs and c_runs:
            if min(len(p_runs), len(c_runs)) < 10:
                print("  (fewer than 10 runs a side: verdicts are weak)")
            print(f"  {'metric':20s} {'parent median [q1, q3]':>34s} "
                  f"{'change median [q1, q3]':>34s} {'delta':>8s} "
                  f"{'won':>6s}  verdict")
            for m in spec["end_to_end"]:
                pcol, ccol, rel, won, v = verdict(
                    m["name"], p_runs, c_runs, m["bound"],
                    m["better"] == "higher")
                print(f"  {m['name']:20s} {pcol:>34s} {ccol:>34s} {rel:>8s} "
                      f"{won:>6s}  {v}")
        if p_tr and c_tr:
            layer_deltas(p_tr, c_tr, spec)
        tracing_overhead("parent", p_tr, spec)
        tracing_overhead("change", c_tr, spec)
        if name == "sim-batch":
            digests = {r["details"]["sim_digest"]
                       for r in parent + change
                       if r["workload"] == name and
                       r["details"].get("distinct_jobs_covered") ==
                       r["details"].get("distinct_jobs")}
            state = ("identical" if len(digests) == 1 else
                     "none with every job covered" if not digests else
                     "DIFFER: " + ", ".join(sorted(digests)))
            print(f"  simulated outputs across all sim-batch runs: {state}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
