#!/usr/bin/env python3
"""Builds and runs the I-SQL end-to-end benchmark.

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and builds
perfbench/ (which builds the library from src/) into .bench_build/perfbench;
later runs only rebuild what changed. Stores and trace files go under
.bench_build/ too. The last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}.

Steadiness mode:
    python3 perfbench/run.py --steady <N> --workload <name> --seconds <s>
        [--first-seed <n>] [--fresh-seed <n>]

runs the workload N times back to back with seeds first-seed.., then once
with a fresh seed, and prints per end-to-end metric the median, the
quartiles, the spread (q3 - q1) / median and (max - min) / median.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("uncertain_queries", "paged_updates", "served_mix")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark binary; exits 1 on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            code = subprocess.call(step, stdout=log, stderr=subprocess.STDOUT)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if os.path.exists(cache) and step[1] == "-S":
                    os.remove(cache)
                fail("build failed (%s); see %s" % (" ".join(step[:2]), log_path))
    if not os.path.exists(BINARY):
        fail("build produced no binary")


def clean_work():
    for path in glob.glob(os.path.join(WORK, "paged-*")):
        shutil.rmtree(path, ignore_errors=True)


def run_once(workload, seed, seconds, trace):
    """Runs the benchmark binary once; returns (output lines, result dict)."""
    os.makedirs(WORK, exist_ok=True)
    clean_work()
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", WORK]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(TRACES, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        clean_work()
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark binary exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("benchmark binary printed no JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result keys: %s" % sorted(result))
    return lines[:-1], result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args):
    runs = []
    for i in range(args.steady):
        seed = args.first_seed + i
        _, result = run_once(args.workload, seed, args.seconds, False)
        runs.append(result)
        print("run %d seed %d correct=%s %s" % (
            i + 1, seed, result["correct"],
            " ".join("%s=%.6g" % (k, v["value"])
                     for k, v in result["metrics"].items())), flush=True)
    _, fresh = run_once(args.workload, args.fresh_seed, args.seconds, False)
    print("\n%-16s %12s %12s %12s %10s %10s %12s" % (
        "metric", "median", "q1", "q3", "iqr/med", "range/med", "fresh-seed"))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(values) - min(values)) / med if med else 0.0
        print("%-16s %12.6g %12.6g %12.6g %10.4f %10.4f %12.6g" % (
            name, med, q1, q3, iqr, rng,
            fresh["metrics"][name]["value"]))
    ok = all(r["correct"] for r in runs) and fresh["correct"]
    print("\nall runs correct: %s; fresh seed %d" % (ok, args.fresh_seed))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="steadiness mode: number of back-to-back runs")
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--fresh-seed", type=int, default=900001)
    args = parser.parse_args()

    build()
    if args.steady > 0:
        return steady(args)
    lines, result = run_once(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
