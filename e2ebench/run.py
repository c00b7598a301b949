#!/usr/bin/env python3
"""Build and run the uvmd end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload paper_tables --seed 1 \
        --seconds 30 --trace 0

Workloads: paper_tables, dl_train, verify_fuzz.  The benchmark is built
from source with CMake (Release) into .bench_build/e2ebench on first
use; build output goes to stderr.  The last line of stdout is the
benchmark's JSON result.  --results-dir (default: results/) is passed
through to the benchmark binary; the smoke test uses it.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "uvmd_e2e")


def build():
    """Configure (once) and build the benchmark; return its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "uvmd_e2e", "-j", jobs],
        stdout=sys.stderr, check=True)
    return BINARY


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_tables", "dl_train", "verify_fuzz"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results-dir")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: benchmark build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT]
    if args.results_dir:
        cmd += ["--results-dir", args.results_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
