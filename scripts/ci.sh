#!/usr/bin/env bash
# CI entry point: build the default and sanitized trees, then run
#
#   1. the tier-1 suite (default build, all tests),
#   2. the chaos suite explicitly (label `chaos`: randomized fault
#      schedules against a fault-free reference),
#   3. the sanitized suite (asan+ubsan build, label `sanitized`),
#   4. the threaded suite under TSan (tsan build, label `threaded`:
#      parallel sweeps, the watchdog's asynchronous expiry handler),
#   5. a verify-fuzz smoke: scenario_fuzz runs seeded random
#      scenarios under the differential oracle in both fault modes
#      (UVMD_FUZZ_SEEDS overrides the per-mode seed count, default
#      200); failing reproducers are preserved in
#      build/fuzz-artifacts/,
#   6. a mutation campaign: scenario_fuzz hunts each deliberate driver
#      bug (uvm::BugInjection, --bug NAME) over 50 seeds per fault
#      mode; the stage fails unless the Oracle itself catches each of
#      them (a campaign exit of 4 or 5 with at least one divergence
#      line: runtime errors alone are no catch) or if the campaign
#      itself errors,
#   7. example output byte-stability (default build): advisor_demo,
#      and scenario_runner on its built-in demo and on every
#      examples/scenarios/*.uvm, must print exactly the committed
#      examples/expected/*.txt,
#   8. the end-to-end benchmark smoke test: e2ebench/smoke_test.py
#      builds e2ebench/uvmd_e2e.cpp on its own against src/ and checks
#      every workload in both trace modes, so a library change that
#      breaks the benchmark fails here,
#   9. the DL fast-forward differential (release build, label `slow`):
#      every DL grid the harnesses train, with dl::runTraining's
#      steady-state fast-forward on and off, must match field for
#      field, whole run and measured region (tier-1 runs one
#      network's cells of it); every UVM run's measured required and
#      redundant bytes must add up to its measured traffic; and at
#      every Figure 5 cell whose allocation fits the GPU, UvmDiscard's
#      measured savings over UVM-opt must not exceed UVM-opt's
#      measured redundant bytes (EXPERIMENTS.md, "Paper-claim
#      relations"),
#  10. results byte-stability (release build): every results-producing
#      bench_* harness regenerates its CSVs at --jobs N, and
#      scripts/check_results.py fails on any byte of drift from the
#      committed results/ or any broken paper-claim relation
#      (EXPERIMENTS.md) and names them,
#  11. a perf smoke stage (release build): bench_host_perf emits
#      BENCH_perf.json at --jobs 2 whatever N is, so its
#      dl_sweep_parallel stage runs the workload its baseline was
#      taken with on every host; it is gated against the committed
#      BENCH_baseline.json by scripts/perf_gate.py (throughput and
#      wall-clock within a tolerance band; the exact work counters,
#      every allocs_per_* count, blocks_walked, batches_simulated and
#      the evictions_* counts, may never increase, and the e2e_verify
#      Oracle `checks` count may never decrease; UVMD_PERF_STRICT=0
#      downgrades the gate to report-only for noisy machines); then one
#      table sweep runs serial and parallel with the CSVs asserted
#      bit-identical (the --jobs determinism contract,
#      docs/performance.md).
#
# Every tree is configured with UVMD_WERROR=ON, so a compiler warning
# in any of them fails CI.
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
cmake --preset default -DUVMD_WERROR=ON
cmake --build --preset default -j "$JOBS"

echo "== configure + build (asan) =="
cmake --preset asan -DUVMD_WERROR=ON
cmake --build --preset asan -j "$JOBS"

echo "== tier-1 tests (default build) =="
ctest --preset default -j "$JOBS"

echo "== chaos tests (default build) =="
ctest --test-dir build -L chaos --output-on-failure -j "$JOBS"

echo "== sanitized tests (asan build) =="
ctest --preset asan -j "$JOBS"

echo "== configure + build (tsan) =="
cmake --preset tsan -DUVMD_WERROR=ON
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

echo "== mutation campaign: every injected bug is caught =="
rm -rf build/mutation-artifacts
for bug in lazy-rearm-keeps-dirty silent-dirty-bit-change \
           skip-discard-requeue drop-evicted-cpu-copy; do
    rc=0
    out=$(build/examples/scenario_fuzz --seeds 50 --no-shrink \
              --bug "$bug" --artifacts "build/mutation-artifacts/$bug") \
        || rc=$?
    diverged=$(grep -c ': divergence (' <<<"$out" || true)
    case "$rc" in
      4|5) if [ "$diverged" -eq 0 ]; then
               echo "mutation campaign: --bug $bug: no Oracle" \
                    "divergence (exit $rc)" >&2
               exit 1
           fi
           echo "--bug $bug: caught ($diverged divergences, exit $rc)" ;;
      0|3) echo "mutation campaign: --bug $bug went uncaught by the" \
                "Oracle (exit $rc)" >&2
         exit 1 ;;
      *) echo "mutation campaign: --bug $bug: scenario_fuzz failed" \
              "(exit $rc)" >&2
         exit 1 ;;
    esac
done

echo "== example outputs match examples/expected/ =="
rm -rf build/example-outputs
mkdir -p build/example-outputs
build/examples/advisor_demo > build/example-outputs/advisor_demo.txt
build/examples/scenario_runner \
    > build/example-outputs/scenario_runner_demo.txt
for f in examples/scenarios/*.uvm; do
    build/examples/scenario_runner "$f" \
        > "build/example-outputs/$(basename "$f" .uvm).txt"
done
if ! diff -ru examples/expected build/example-outputs; then
    echo "example output drifted from examples/expected/" >&2
    exit 1
fi

echo "== configure + build (release) =="
cmake --preset release -DUVMD_WERROR=ON
cmake --build --preset release -j "$JOBS"

echo "== end-to-end benchmark smoke test =="
python3 e2ebench/smoke_test.py

echo "== DL fast-forward differential, every grid (release build) =="
ctest --test-dir build-release -L slow --output-on-failure -j "$JOBS"

echo "== results byte-stability (release build) =="
python3 scripts/check_results.py --build build-release --jobs "$JOBS"

echo "== perf smoke (release build) =="
build-release/bench/bench_host_perf --quick --jobs 2 \
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
