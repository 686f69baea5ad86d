#!/usr/bin/env python3
"""Runs two sets of benchmark runs per workload and says whether they agree.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--first-seed 1]

Run from the repository root. Each set runs every workload --runs times
through perfbench/run.py with the run length from BENCHMARK.json, each run
with a seed of its own (the second set continues where the first stopped),
plus one traced run per workload.

For every end-to-end metric it prints each set's median, quartiles and spread
((q3 - q1) / median). The two sets agree when
  - every run is correct and has no failed job;
  - every spread but setup_s's stays within the metric's bound;
  - no second-set median is worse than the first's by more than the bound;
  - the exact metrics (flagged in perfbench/layers.json) are identical in
    every run, end-to-end ones across all runs and per-layer ones across the
    traced runs;
  - BENCHMARK.json's metrics and every traced run's metrics and units are
    the ones perfbench/layers.json lists.
It also prints the tracing overhead each traced run measured
(trace.overhead_p50_us). Exits 0 when the sets agree.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["why_not"] = [l.strip() for l in lines if l.strip().startswith("FAIL:")]
    result["seed"] = seed
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    exact = {m["name"] for m in layers["end_to_end"] + layers["per_layer"] if m["exact"]}
    listed = {m["name"]: (m["unit"], m["better"]) for m in layers["per_layer"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = set(listed)

    agree = True
    if {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} != listed:
        print("PROBLEM: BENCHMARK.json per_layer differs from perfbench/layers.json")
        agree = False
    if set(e2e) != {m["name"] for m in layers["end_to_end"]}:
        print("PROBLEM: BENCHMARK.json end_to_end differs from perfbench/layers.json")
        agree = False
    summary = {}
    for wl in args.workloads.split(","):
        sets, traced = [], []
        for s in range(2):
            seeds = range(args.first_seed + s * args.runs,
                          args.first_seed + (s + 1) * args.runs)
            sets.append([run(wl, seed, seconds, 0) for seed in seeds])
            traced.append(run(wl, seeds[0], seconds, 1))
        print(f"\n== {wl}: {args.runs} runs per set, {seconds} s each")
        problems = []
        for r in sets[0] + sets[1] + traced:
            if not r["correct"] or r["failed"] != 0:
                problems.append(f"seed {r['seed']}: not correct or has failed jobs "
                                f"({r['failed']}): {r['why_not']}")
        for r in traced:
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != {k: u for k, (u, _) in listed.items()}:
                problems.append(f"traced run metrics differ from layers.json: "
                                f"{sorted(set(got) ^ per_layer)}")
        summary[wl] = {}
        for name, spec in e2e.items():
            rows = []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(vals)
                rows.append((med, q1, q3, (q3 - q1) / med if med else 0.0, vals))
            (m1, _, _, s1, v1), (m2, _, _, s2, v2) = rows
            worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
            ok = worse <= spec["bound"]
            if name != "setup_s":
                ok = ok and s1 <= spec["bound"] and s2 <= spec["bound"]
            if name in exact and len(set(v1 + v2)) != 1:
                ok = False
                problems.append(f"{name} is exact but varies: {sorted(set(v1 + v2))}")
            agree = agree and ok
            print(f"  {name:24s} set1 {m1:<12.6g} spread {s1:6.3f}   "
                  f"set2 {m2:<12.6g} spread {s2:6.3f}   worse {worse:+.3f}  "
                  f"bound {spec['bound']}  {'ok' if ok else 'NOT OK'}")
            summary[wl][name] = {"median": [m1, m2], "spread": [s1, s2],
                                 "worse": worse, "ok": ok}
        for name in sorted(exact & per_layer):
            vals = {r["metrics"][name]["value"] for r in traced}
            if len(vals) != 1:
                problems.append(f"{name} is exact but varies: {sorted(vals)}")
        overhead = [r["metrics"]["trace.overhead_p50_us"]["value"] for r in traced]
        print(f"  tracing overhead (traced minus untraced replay p50): "
              f"{', '.join(f'{v:+.2f}' for v in overhead)} us")
        summary[wl]["tracing_overhead_us"] = overhead
        for p in problems:
            print(f"  PROBLEM: {p}")
        agree = agree and not problems
    print(json.dumps({"agree": agree, "workloads": summary}))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
