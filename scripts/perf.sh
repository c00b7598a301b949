#!/usr/bin/env bash
# Host-performance trajectory: build the release preset (-O3, LTO) and
# run the bench_host_perf harness, writing BENCH_perf.json (per-stage
# wall-time, simulated-events/sec, mask-op throughput).  With -F the
# full figure/table harnesses are timed as well and appended to the
# JSON (slow: minutes, not seconds).
#
# After the run, the results are diffed against the committed
# BENCH_baseline.json (scripts/perf_gate.py, 15% tolerance band);
# regressions fail the script unless UVMD_PERF_STRICT=0.  Use -B to
# re-baseline: the fresh BENCH_perf.json is copied over
# BENCH_baseline.json instead of being gated (commit the result).
#
# Usage: scripts/perf.sh [-j N] [-q] [-F] [-B] [-o FILE]
#   -j N   threads for the parallel sweep stages, and build jobs
#          (default: all hardware threads; 1 runs the sweeps serially)
#   -q     quick mode — reduced iteration counts, for CI smoke
#   -F     also time the Figure 5-7 and table harnesses
#   -B     re-baseline: overwrite BENCH_baseline.json, skip the gate
#   -o F   output JSON path (default: BENCH_perf.json in the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)
QUICK=""
FULL=0
REBASELINE=0
OUT="$PWD/BENCH_perf.json"
BASELINE="$PWD/BENCH_baseline.json"
while getopts "j:qFBo:" flag; do
    case "$flag" in
      j) JOBS="$OPTARG" ;;
      q) QUICK="--quick" ;;
      F) FULL=1 ;;
      B) REBASELINE=1 ;;
      o) OUT="$OPTARG" ;;
      *) echo "usage: $0 [-j N] [-q] [-F] [-B] [-o FILE]" >&2
         exit 2 ;;
    esac
done

echo "== configure + build (release preset) =="
cmake --preset release
cmake --build --preset release -j "$JOBS"

echo "== bench_host_perf (jobs=$JOBS) =="
build-release/bench/bench_host_perf --jobs "$JOBS" $QUICK --out "$OUT"

if [ "$FULL" -eq 1 ]; then
    echo "== full harness timings (jobs=$JOBS) =="
    workdir=$(mktemp -d)
    trap 'rm -rf "$workdir"' EXIT
    timings=""
    for bench in bench_fig5_6_dl_pcie4 bench_fig7_dl_throughput_pcie3 \
                 bench_fir_tables3_4 bench_radix_tables5_6 \
                 bench_hashjoin_tables7_8; do
        start=$(date +%s%N)
        (cd "$workdir" &&
         "$OLDPWD/build-release/bench/$bench" --jobs "$JOBS" \
             > "$bench.out")
        end=$(date +%s%N)
        ms=$(( (end - start) / 1000000 ))
        echo "  $bench: ${ms} ms"
        timings="$timings $bench=$ms"
    done
    # Fold the harness timings into the JSON when python3 is around;
    # otherwise they remain on stdout only.
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$OUT" $timings <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
for spec in sys.argv[2:]:
    name, ms = spec.rsplit("=", 1)
    doc["benches"].append(
        {"name": name, "wall_ms": float(ms), "metrics": {}})
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"merged harness timings into {path}")
EOF
    else
        echo "python3 not found; harness timings not merged into JSON"
    fi
fi

if [ "$REBASELINE" -eq 1 ]; then
    cp "$OUT" "$BASELINE"
    echo "perf: re-baselined — commit $BASELINE"
elif [ -f "$BASELINE" ]; then
    echo "== regression gate (vs BENCH_baseline.json) =="
    if command -v python3 >/dev/null 2>&1; then
        python3 scripts/perf_gate.py "$BASELINE" "$OUT"
    else
        echo "python3 not found; regression gate skipped"
    fi
else
    echo "perf: no BENCH_baseline.json; run with -B to create one"
fi

echo "perf: done — $OUT"
