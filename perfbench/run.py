#!/usr/bin/env python3
"""Builds the simulator's host-performance benchmark and runs one workload.

    python3 perfbench/run.py --workload gpu-fig8 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The first run configures and builds
perfbench/ (a Release build of the simulator library plus the benchmark)
into .bench_build/perfbench; later runs rebuild only what changed. Build
output goes to stderr. The benchmark's report goes to stdout and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones and writes a
Chrome trace under .bench_build/perfbench/out. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("gpu-fig8", "noc-sparse", "noc-qos-saturated")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# Time allowed past --seconds: the pass in progress at the deadline still
# finishes (a pass takes about 1.5 s on a 4-core x86 box).
GRACE_SECONDS = 60


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0xC0FFEE)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in [1, 3600]")
    return args


def build():
    """Configures and builds the benchmark; exits on failure."""
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr.fileno(),
                                stderr=sys.stderr.fileno(), check=False)
        if result.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main():
    args = parse_args()
    build()
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--expected-dir", os.path.join(BENCH_DIR, "expected"),
           "--out-dir", os.path.join(BUILD_DIR, "out")]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, check=False,
                                timeout=args.seconds + GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: timed out")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
