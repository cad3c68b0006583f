#!/usr/bin/env python3
"""Build and run the dbpsim host-time benchmark.

Usage (from the repository root):

    python3 hostbench/run.py --workload mix_intensive --seed 1 \
        --seconds 20 --trace 0

Configures and builds hostbench/ (and with it the simulator's
libraries from src/) into .bench_build/hostbench on first use, then
runs the benchmark binary. Build output goes to stderr; the binary's last line
of stdout is the JSON result. See hostbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "hostbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("src/sim/system.hh", "bench/bench_common.hh"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print("hostbench: %s not found; run from a dbpsim checkout"
                  % need, file=sys.stderr)
            return 2
    if not build():
        print("hostbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(BUILD, "hostbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
