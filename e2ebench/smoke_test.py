#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark itself.

Run from the repository root:

    python3 e2ebench/smoke_test.py

Checks, in about a minute:
  * every workload, with --trace 0 and --trace 1, prints a last stdout
    line with exactly correct/attempted/failed/metrics, passes its
    output checks, and prints exactly the metrics BENCHMARK.json lists
    for that mode, each with the listed unit (end-to-end ones nonzero);
  * a deliberately perturbed results cell makes the output check fail
    (failed > 0, correct false), so the check is live;
  * in a directory holding only BENCHMARK.json and e2ebench/, the
    benchmark exits nonzero without printing a result.
Exit status 0 means every check passed.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "smoke")
WORKLOADS = ["paper_tables", "dl_train", "verify_fuzz"]

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(cwd, workload, trace, *extra):
    cmd = ["python3", "e2ebench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return p.returncode, result


def check_metrics(result, listed, label, nonzero):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in listed}
    check(set(got) == set(want),
          f"{label}: printed metrics match BENCHMARK.json "
          f"(extra {sorted(set(got) - set(want))}, "
          f"missing {sorted(set(want) - set(got))})")
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            check(False, f"{label}: {name} unit {m.get('unit')} "
                         f"!= {want[name]}")
        if nonzero and not m.get("value"):
            check(False, f"{label}: {name} reads 0")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check([w["name"] for w in spec["workloads"]] == WORKLOADS,
          "BENCHMARK.json names paper_tables, dl_train, verify_fuzz")

    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            rc, result = bench(ROOT, workload, trace)
            check(rc == 0 and result is not None, f"{label}: exit 0, JSON")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{label}: result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] > 0,
                  f"{label}: all {result['attempted']} runs correct")
            listed = spec["per_layer" if trace else "end_to_end"]
            check_metrics(result, listed, label, nonzero=not trace)

    # A perturbed committed cell must fail the output check.
    shutil.rmtree(SCRATCH, ignore_errors=True)
    results = os.path.join(SCRATCH, "results")
    shutil.copytree(os.path.join(ROOT, "results"), results)
    path = os.path.join(results, "table4_fir_traffic.csv")
    with open(path) as f:
        rows = [line.split(",") for line in f.read().splitlines()]
    rows[2][2] = f"{float(rows[2][2]) + 0.01:.2f}"  # UvmDiscard, 200%
    with open(path, "w") as f:
        f.write("\n".join(",".join(r) for r in rows) + "\n")
    rc, result = bench(ROOT, "paper_tables", 0, "--results-dir", results)
    check(rc == 0 and result is not None and result["failed"] > 0
          and result["correct"] is False,
          "perturbed results cell is caught (failed > 0)")

    # Without the sources the benchmark must fail, not print a result.
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, result = bench(bare, "paper_tables", 0)
    check(rc != 0 and result is None,
          "bare checkout: nonzero exit and no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
