#!/usr/bin/env python3
"""Runs one workload with several seeds and prints each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload durable_edit --runs 10 [--trace 0]

For every metric it prints the median of the runs and the distance
between the first and third quartile as a share of the median, which is
how the end-to-end bounds in BENCHMARK.json are checked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace",
             str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        wall = time.monotonic() - start
        if proc.returncode != 0:
            sys.exit("seed %d failed:\n%s" % (seed, proc.stdout))
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        probes = [line.split()[1] for line in lines
                  if line.strip().startswith("host_probe_")]
        print("seed %d: %.1f s correct=%s failed=%d host probe %s ms" %
              (seed, wall, result["correct"], result["failed"],
               "/".join(probes)), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("%-34s %14s %8s %8s  runs" % ("metric", "median", "iqr/med",
                                        "bound"))
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        print("%-34s %14.4f %8.3f %8s  %s" % (
            name, median, spread, "-" if bound is None else bound,
            " ".join("%.4g" % v for v in series)))


if __name__ == "__main__":
    main()
