#!/usr/bin/env python3
"""Stability record: runs the benchmark on seeds 1..10 and summarizes.

    python3 perfbench/stability.py

For every workload of BENCHMARK.json it runs perfbench/run.py --trace 0
once per seed and reports, per end_to_end metric, the median, the
quartiles (statistics.quantiles(n=4)) and the spread: the interquartile
distance as a share of the median, next to the metric's bound and a third
of it. It also runs --trace 1 on seeds 1 and 2 and records each run's
layer shares, which shows whether the layer predicted to dominate a
workload still does on another seed. The record is written to
perfbench/results/stability.json.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
TRACE_SEEDS = SEEDS[:2]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    shares = {}
    for line in lines:
        if line.startswith("layer_shares "):
            for item in line.split()[1:]:
                k, v = item.split("=")
                shares[k] = float(v)
    return result, shares, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    record = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        per_metric = {m["name"]: [] for m in spec["end_to_end"]}
        walls = []
        for seed in SEEDS:
            result, _, wall = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect answer")
            walls.append(wall)
            for name, m in result["metrics"].items():
                per_metric[name].append(m["value"])
        entry = {"run_wall_s": summarize(walls), "metrics": {}}
        print(f"== {workload} ({len(SEEDS)} seeds, run wall median "
              f"{statistics.median(walls):.1f} s)")
        for m in spec["end_to_end"]:
            s = summarize(per_metric[m["name"]])
            s["bound"] = m["bound"]
            entry["metrics"][m["name"]] = s
            flag = "" if s["spread"] < m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']:18s} median {s['median']:12.4f} {m['unit']:4s} "
                  f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} spread "
                  f"{s['spread']:.4f} (bound {m['bound']}, third "
                  f"{m['bound'] / 3:.4f}){flag}")
        shares = []
        for seed in TRACE_SEEDS:
            _, layer_shares, _ = run_once(workload, seed, seconds, 1)
            shares.append({"seed": seed, "layer_shares": layer_shares})
            print(f"  trace seed {seed}: layer shares {layer_shares}")
        entry["traced"] = shares
        record["workloads"][workload] = entry
    with open(os.path.join(HERE, "results", "stability.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
