#!/usr/bin/env bash
# CI entry point: build the default and sanitized trees, then run
#
#   1. the tier-1 suite (default build, all tests),
#   2. the chaos suite explicitly (label `chaos`: randomized fault
#      schedules against a fault-free reference),
#   3. the sanitized suite (asan+ubsan build, label `sanitized`),
#   4. the threaded suite under TSan (tsan build, label `threaded`:
#      thread pool, parallel sweeps, watchdog threads),
#   5. a verify-fuzz smoke: scenario_fuzz runs seeded random
#      scenarios under the differential oracle in both fault modes
#      (UVMD_FUZZ_SEEDS overrides the per-mode seed count, default
#      200); failing reproducers are preserved in
#      build/fuzz-artifacts/,
#   6. results byte-stability (release build): every results-producing
#      bench_* harness regenerates its CSVs at --jobs N, and
#      scripts/check_results.py fails on any byte of drift from the
#      committed results/ and names the drifting files,
#   7. a perf smoke stage (release build): bench_host_perf emits
#      BENCH_perf.json, which is gated against the committed
#      BENCH_baseline.json by scripts/perf_gate.py (throughput and
#      wall-clock within a tolerance band, allocs_per_iter may never
#      increase; UVMD_PERF_STRICT=0 downgrades the gate to
#      report-only for noisy machines); then one table sweep runs
#      serial and parallel with the CSVs asserted bit-identical (the
#      --jobs determinism contract, docs/performance.md).
#
# Usage: scripts/ci.sh [-j N]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)
while getopts "j:" opt; do
    case "$opt" in
      j) JOBS="$OPTARG" ;;
      *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
    esac
done

echo "== configure + build (default) =="
cmake --preset default
cmake --build --preset default -j "$JOBS"

echo "== configure + build (asan) =="
cmake --preset asan
cmake --build --preset asan -j "$JOBS"

echo "== tier-1 tests (default build) =="
ctest --preset default -j "$JOBS"

echo "== chaos tests (default build) =="
ctest --test-dir build -L chaos --output-on-failure -j "$JOBS"

echo "== sanitized tests (asan build) =="
ctest --preset asan -j "$JOBS"

echo "== configure + build (tsan) =="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"

echo "== threaded tests (tsan build) =="
ctest --preset tsan -j "$JOBS"

echo "== verify-fuzz smoke (default build) =="
rm -rf build/fuzz-artifacts
if ! build/examples/scenario_fuzz \
       --seeds "${UVMD_FUZZ_SEEDS:-200}" \
       --artifacts build/fuzz-artifacts; then
    echo "verify-fuzz failed; reproducers kept in" \
         "build/fuzz-artifacts/" >&2
    exit 1
fi

echo "== configure + build (release) =="
cmake --preset release
cmake --build --preset release -j "$JOBS"

echo "== results byte-stability (release build) =="
python3 scripts/check_results.py --build build-release --jobs "$JOBS"

echo "== perf smoke (release build) =="
build-release/bench/bench_host_perf --quick --jobs "$JOBS" \
    --out build-release/BENCH_perf.json

echo "== perf gate (vs committed baseline) =="
python3 scripts/perf_gate.py BENCH_baseline.json \
    build-release/BENCH_perf.json

echo "== sweep determinism: serial vs parallel CSVs =="
rm -rf build-release/sweep-serial build-release/sweep-parallel
mkdir -p build-release/sweep-serial build-release/sweep-parallel
(cd build-release/sweep-serial &&
 ../bench/bench_fir_tables3_4 --jobs 1 > bench.out)
(cd build-release/sweep-parallel &&
 ../bench/bench_fir_tables3_4 --jobs 4 > bench.out)
diff -r build-release/sweep-serial build-release/sweep-parallel
echo "serial and parallel sweep outputs are bit-identical."

echo "CI: all suites passed."
