#!/usr/bin/env python3
"""Repository benchmark: builds the driver, runs one workload, reports.

    python3 perfbench/run.py --workload imdb_join --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and the library it links) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark's own arithmetic self-tests, runs the driver, and prints one
line per metric ("metric <name> = <value> <unit>") followed, as the last
line, by the JSON result {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones. Exits non-zero when a build or self-test fails, and after
the result line when any answer was wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("imdb_join", "lake_fuzzy_union", "lake_restart")
# The whole run, build included, must end well inside the 180 s budget.
RUN_BUDGET_S = 170.0

def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def self_test():
    suite = unittest.defaultTestLoader.discover(os.path.join(HERE, "tests"))
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def fmt(value):
    return f"{value:.6g}"


def report(raw, trace):
    """Prints the human-readable lines and returns the metrics dict."""
    ctx = raw["context"]
    log_line = (
        f"context workload={raw['workload']} seed={int(raw['seed'])} "
        f"nproc={int(ctx['nproc'])} cores_granted={int(ctx['cores_granted'])} "
        f"pool_threads={int(ctx['pool_threads'])} build_type={ctx['build_type']} "
        f"tracing_compiled_in={str(ctx['tracing_compiled_in']).lower()}")
    print(log_line)
    print("inputs " + " ".join(
        f"{k}={int(v)}" for k, v in sorted(raw["inputs"].items())))
    for err in raw["errors"]:
        print(f"error {err}")

    spec = declared_metrics(trace)
    if trace:
        values = metrics.per_layer(raw)
        shares = metrics.layer_shares(raw)
        print("layer_shares " + " ".join(
            f"{k}={v:.3f}" for k, v in shares.items()))
    else:
        values = metrics.end_to_end(raw)
        request = [c["request_ms"] for c in raw["cycles"]]
        _, pct, n = metrics.tail(request)
        print(f"tail request_tail_ms is p{pct:.1f} of n={n} samples "
              f"({metrics.TAIL_BEYOND} beyond); request median "
              f"{fmt(metrics.median(request))} ms")
    for m in spec:
        if m["name"] in values:
            print(f"metric {m['name']} = {fmt(values[m['name']])} {m['unit']}")
    return values


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    try:
        driver = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    if not self_test():
        log("perfbench: self-tests of the benchmark arithmetic failed")
        return 1

    workdir = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        raw_path = os.path.join(workdir, "raw.json")
        cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--raw", raw_path]
        budget = max(1.0, RUN_BUDGET_S - (time.monotonic() - start))
        # glibc otherwise creates malloc arenas on thread contention, whose
        # number varies run to run and moves peak RSS by up to ~15%.
        env = dict(os.environ, MALLOC_ARENA_MAX="2")
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=budget, env=env)
        except subprocess.TimeoutExpired:
            log(f"perfbench: driver exceeded {budget:.0f} s")
            return 1
        except subprocess.CalledProcessError as e:
            log(f"perfbench: driver failed with exit code {e.returncode}")
            return 1
        with open(raw_path) as f:
            raw = json.load(f)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = report(raw, args.trace)
    spec = declared_metrics(args.trace)
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        log(f"perfbench: metrics not computed: {missing}")
        return 1
    correct = (raw["failed"] == 0 and raw["mismatches"] == 0 and
               len(raw["cycles"]) > 0 and
               (not args.trace or len(raw["traced"]) > 0))
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
