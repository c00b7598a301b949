#!/usr/bin/env python3
"""Regenerate every results/*.csv and byte-compare it with the committed copy.

Usage: check_results.py [--build DIR] [--jobs N]

Runs each results-producing bench_* harness of the build tree (every
bench_* binary except the host-perf micro-benches) in its own scratch
directory with `--jobs N`, then compares each CSV it wrote against the
file of the same name under results/. Harnesses that take no arguments
ignore the flag. A CSV that a harness writes but results/ does not hold
is listed and not compared.

The check fails when:
  - a harness exits nonzero,
  - a regenerated CSV differs from results/ by even one byte, or
  - a results/*.csv was not regenerated by any harness.

Options:
  --build DIR  build tree holding bench/bench_* (default: build-release)
  --jobs N     sweep worker threads per harness (default: all CPUs)

The regenerated CSVs and each harness's stdout go to a temporary
directory, one subdirectory per harness. It is removed when the check
passes and kept, with its path printed, when it fails.

Exit codes: 0 all byte-identical, 1 drift or a failed harness, 2 usage.
"""

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
import time

# Harnesses that time the simulator itself and write no results/ CSV.
NOT_RESULTS = {"bench_host_perf", "bench_driver_ops"}


def harnesses(bench_dir):
    names = sorted(
        n for n in os.listdir(bench_dir)
        if n.startswith("bench_") and n not in NOT_RESULTS
        and os.access(os.path.join(bench_dir, n), os.X_OK)
        and os.path.isfile(os.path.join(bench_dir, n)))
    return [os.path.join(bench_dir, n) for n in names]


def run_all(bench_dir, results_dir, jobs, work_dir):
    drift, failed, unbaselined = [], [], []
    regenerated = set()
    for exe in harnesses(bench_dir):
        name = os.path.basename(exe)
        out_dir = os.path.join(work_dir, name)
        os.makedirs(out_dir, exist_ok=True)
        start = time.monotonic()
        with open(os.path.join(out_dir, "stdout.txt"), "w") as log:
            rc = subprocess.call([exe, "--jobs", str(jobs)], cwd=out_dir,
                                 stdout=log, stderr=subprocess.STDOUT)
        secs = time.monotonic() - start
        csvs = sorted(f for f in os.listdir(out_dir) if f.endswith(".csv"))
        print(f"  {name}: {secs:.1f} s, {len(csvs)} CSV(s)")
        if rc != 0:
            failed.append(f"{name} (exit {rc})")
            continue
        for csv in csvs:
            committed = os.path.join(results_dir, csv)
            if not os.path.exists(committed):
                unbaselined.append(f"{name}: {csv}")
                continue
            regenerated.add(csv)
            if not filecmp.cmp(os.path.join(out_dir, csv), committed,
                               shallow=False):
                drift.append(f"results/{csv} (from {name})")
    committed_csvs = {f for f in os.listdir(results_dir)
                      if f.endswith(".csv")}
    missing = sorted(committed_csvs - regenerated)
    return drift, failed, missing, unbaselined, len(regenerated)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(
        description="Byte-compare regenerated results/*.csv.")
    ap.add_argument("--build", default=os.path.join(root, "build-release"))
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = ap.parse_args()

    bench_dir = os.path.join(os.path.abspath(args.build), "bench")
    results_dir = os.path.join(root, "results")
    if not os.path.isdir(bench_dir) or not harnesses(bench_dir):
        print(f"check_results: no bench_* harnesses in {bench_dir}",
              file=sys.stderr)
        return 2

    print(f"check_results: regenerating results/ from {bench_dir} "
          f"(--jobs {args.jobs})")
    work_dir = tempfile.mkdtemp(prefix="uvmd-results-")
    drift, failed, missing, unbaselined, compared = run_all(
        bench_dir, results_dir, args.jobs, work_dir)

    for u in unbaselined:
        print(f"check_results: not in results/, not compared: {u}")
    for f in failed:
        print(f"check_results: FAILED harness: {f}", file=sys.stderr)
    for d in drift:
        print(f"check_results: DRIFT: {d}", file=sys.stderr)
    for m in missing:
        print(f"check_results: NOT REGENERATED: results/{m}",
              file=sys.stderr)
    if drift or failed or missing:
        print(f"check_results: regenerated outputs kept in {work_dir}",
              file=sys.stderr)
        return 1
    shutil.rmtree(work_dir)
    print(f"check_results: OK — {compared} CSVs byte-identical "
          "to results/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
