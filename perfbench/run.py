#!/usr/bin/env python3
"""Builds and runs the damocles end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload durable_edit --seed 1 --seconds 20 --trace 0

Builds perfbench/ (Release, failpoints off, -Werror off) into
.bench_build/perfbench, runs one workload and prints the binary's report;
the last line of stdout is the JSON result. --trace 1 reports the
per-layer metrics of the traced replay instead of the end-to-end ones.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the damocles sources (CMakeLists.txt, src/) are not next to "
             + os.path.relpath(BENCH_DIR))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = [
            "cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
            "-DCMAKE_BUILD_TYPE=Release",
            "-DDAMOCLES_FAILPOINTS=OFF",
            "-DDAMOCLES_WERROR=OFF",
        ]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["wave_ingest", "durable_edit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        for name in os.listdir(WORK_DIR):
            if name.startswith("wal-"):
                shutil.rmtree(os.path.join(WORK_DIR, name),
                              ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail("perfbench exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == 1)
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != want:
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(got.items()), sorted(want.items())))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
