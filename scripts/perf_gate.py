#!/usr/bin/env python3
"""Compare a BENCH_perf.json run against a committed baseline.

Usage: perf_gate.py BASELINE.json CURRENT.json [--tolerance FRAC]

Gate semantics (docs/performance.md, "Regression gate"):

  - Throughput metrics (names ending in `_per_sec`) regress when
    current < baseline * (1 - tolerance).
  - `wall_ms` regresses when  current > baseline * (1 + tolerance),
    and is only compared when both files were produced in the same
    mode (`--quick` vs full) — wall times of different modes are not
    comparable.
  - Exact work counters — allocation counts (names starting with
    `allocs_per_`), `blocks_walked`, `periods_simulated` and the
    eviction counts (names starting with `evictions_`) — are
    deterministic counts, not timings: any increase over the baseline
    fails regardless of tolerance (the zero-allocation steady state keeps
    `allocs_per_iter` at 0; `allocs_per_script` catches a return to
    deep-copied backing-store payloads; `allocs_per_run` catches a
    return to a heap node per audited block; `blocks_walked` catches a
    return to per-block walks for fully resident or fully discarded
    ranges; `periods_simulated` catches the DL or radix steady-state
    fast-forward no longer firing; `evictions_used` and
    `evictions_discarded` catch a change of the victims the eviction
    process picks).
  - Coverage counters (`checks`, the Oracle checks a verify run
    makes) are deterministic too: any decrease fails, so a check
    dropped from the Oracle cannot pass unnoticed.
  - Benches present in the baseline but missing from the current run
    fail (a silently-dropped bench is a coverage regression); new
    benches in the current run are ignored (they gate once
    re-baselined).

Exit codes: 0 ok, 1 regression(s), 2 usage/parse error.
Set UVMD_PERF_STRICT=0 to report but never fail (noisy machines).
"""

import json
import os
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def bench_map(doc):
    return {b["name"]: b for b in doc.get("benches", [])}


def is_exact_counter(key):
    return (key.startswith("allocs_per_") or
            key in ("blocks_walked", "periods_simulated") or
            key.startswith("evictions_"))


def is_coverage_counter(key):
    return key == "checks"


def is_quick(doc):
    return bool(doc.get("host", {}).get("quick", False))


def main(argv):
    tolerance = 0.15
    args = []
    it = iter(argv[1:])
    for a in it:
        if a == "--tolerance":
            try:
                tolerance = float(next(it))
            except (StopIteration, ValueError):
                print("perf_gate: --tolerance needs a number",
                      file=sys.stderr)
                return 2
        else:
            args.append(a)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    base_doc, cur_doc = load(args[0]), load(args[1])
    base, cur = bench_map(base_doc), bench_map(cur_doc)
    same_mode = is_quick(base_doc) == is_quick(cur_doc)
    if not same_mode:
        print("perf_gate: baseline and current differ in --quick "
              "mode; wall_ms not compared")

    regressions = []
    compared = 0

    for name, b in sorted(base.items()):
        c = cur.get(name)
        if c is None:
            regressions.append(f"{name}: bench missing from current run")
            continue
        bm, cm = b.get("metrics", {}), c.get("metrics", {})

        if same_mode and "wall_ms" in b and "wall_ms" in c:
            compared += 1
            if c["wall_ms"] > b["wall_ms"] * (1 + tolerance):
                regressions.append(
                    f"{name}: wall_ms {c['wall_ms']:.2f} vs baseline "
                    f"{b['wall_ms']:.2f} (> +{tolerance:.0%})")

        for key, bv in sorted(bm.items()):
            if key not in cm:
                continue
            cv = cm[key]
            if not isinstance(bv, (int, float)) or \
               not isinstance(cv, (int, float)):
                continue
            if is_exact_counter(key):
                compared += 1
                if cv > bv:
                    regressions.append(
                        f"{name}: {key} {cv} vs baseline "
                        f"{bv} (any increase fails)")
            elif is_coverage_counter(key):
                compared += 1
                if cv < bv:
                    regressions.append(
                        f"{name}: {key} {cv} vs baseline "
                        f"{bv} (any decrease fails)")
            elif key.endswith("_per_sec"):
                compared += 1
                if cv < bv * (1 - tolerance):
                    regressions.append(
                        f"{name}: {key} {cv:.3g} vs baseline "
                        f"{bv:.3g} (< -{tolerance:.0%})")

    print(f"perf_gate: compared {compared} metrics across "
          f"{len(base)} benches, tolerance {tolerance:.0%}")
    if not regressions:
        print("perf_gate: OK — no regressions vs baseline")
        return 0
    for r in regressions:
        print(f"perf_gate: REGRESSION: {r}", file=sys.stderr)
    if os.environ.get("UVMD_PERF_STRICT", "1") == "0":
        print("perf_gate: UVMD_PERF_STRICT=0 — reporting only, "
              "not failing", file=sys.stderr)
        return 0
    print(f"perf_gate: {len(regressions)} regression(s); re-baseline "
          "with scripts/perf.sh -B if intentional", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
