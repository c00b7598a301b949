/**
 * @file
 * Host-performance harness: measures how fast the *simulator itself*
 * runs (wall-clock, not simulated time) and emits machine-readable
 * JSON so CI can track the trajectory (`BENCH_perf.json`).
 *
 * Stages:
 *   mask_ops         word-scan run extraction / countRuns / makeMask
 *                    throughput, with the per-bit reference alongside
 *                    so the speedup is measured, not assumed
 *   driver_ops       blockOf dense-index lookups vs the hash-map
 *                    reference, and counter-table row increments
 *   driver_discard   the discard -> re-arm prefetch driver cycle;
 *                    also reports allocs_per_iter, the heap
 *                    allocations per warmed steady-state cycle
 *                    (expected: 0)
 *   runtime_stream   a small Runtime workload; reports simulated
 *                    events (stream-op dispatches) per wall second
 *   dl_sweep         a reduced DL sweep, serial (dl_sweep_serial) and,
 *                    if --jobs > 1, parallel (dl_sweep_parallel, with
 *                    the job count as its `jobs` metric), for the
 *                    sweep-level win
 *   e2e_radix        one full Table 5/6 cell end to end: runRadixSort
 *                    under UVM-opt at 200% on PCIe-4, the run whose
 *                    host time is set by the RMT auditor's per-page
 *                    open-transfer counts (radix thrash reopens the
 *                    same pages on nearly every transfer); wall_ms is
 *                    the fastest of a few repetitions, since a shared
 *                    host can only slow a run down; allocs_per_run is
 *                    the exact number of heap allocations of one run,
 *                    evictions_used and evictions_discarded the
 *                    exact eviction counts of the run;
 *                    periods_simulated the digit passes it actually
 *                    simulated (the steady-state fast-forward computes
 *                    the rest)
 *   e2e_dl           two Figure 6 cells end to end: ResNet-53 under
 *                    UvmDiscard on PCIe-4 at batch 56 (fits) and 90
 *                    (oversubscribed), the runs whose host time is set
 *                    by the driver's per-block walks; wall_ms is the
 *                    fastest of a few repetitions; blocks_walked is
 *                    the exact number of blocks those walks visited
 *                    (whole-range fast paths visit none);
 *                    allocs_per_run the heap allocations per cell;
 *                    evictions_used and evictions_discarded summed
 *                    over both cells; periods_simulated the training
 *                    batches both cells actually simulated (the
 *                    steady-state fast-forward computes the rest)
 *   e2e_hashjoin     one full Table 7/8 cell end to end: runHashJoin
 *                    under UvmDiscard at 200% on PCIe-4; wall_ms is
 *                    the fastest of a few repetitions; blocks_walked
 *                    is the exact number of blocks the driver's walks
 *                    visited, allocs_per_run the heap allocations of
 *                    one run, evictions_used and evictions_discarded
 *                    its eviction counts
 *   e2e_verify       a slice of the CI verify campaign end to end:
 *                    runVerifiedScenario with content checks over
 *                    fuzz seeds 1-50, fault injection off and on; the
 *                    run whose host time is set by the backing store's
 *                    page payloads; wall_ms is the fastest of a few
 *                    repetitions; also reports the oracle checks and
 *                    the heap allocations per script
 *
 * Usage: bench_host_perf [--jobs N] [--out FILE] [--quick]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc_count.hpp"
#include "cuda/runtime.hpp"
#include "dl_sweep.hpp"
#include "sweep_runner.hpp"
#include "verify/fuzzer.hpp"
#include "verify/verified_run.hpp"
#include "workloads/hash_join.hpp"
#include "workloads/radix_sort.hpp"

namespace {

using namespace uvmd;
using namespace uvmd::bench;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

struct Metric {
    std::string name;
    double value;
};

/** Compiler barrier: forces @p value to exist each iteration and
 *  clobbers memory, so measured loops are neither elided nor
 *  collapsed into a single strength-reduced update. */
template <typename T>
inline void
keep(T const &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

struct BenchResult {
    std::string name;
    double wall_ms = 0.0;
    std::vector<Metric> metrics;
};

uvm::PageMask
fragmentedMask()
{
    uvm::PageMask mask;
    for (std::uint32_t p = 0; p < mem::kPagesPerBlock; ++p) {
        if ((p / 8) % 2 == 0)
            mask.set(p);
    }
    return mask;
}

template <typename Fn>
void
naiveForEachRun(const uvm::PageMask &mask, Fn &&fn)
{
    std::size_t i = 0;
    while (i < mem::kPagesPerBlock) {
        if (!mask.test(i)) {
            ++i;
            continue;
        }
        std::size_t first = i;
        while (i + 1 < mem::kPagesPerBlock && mask.test(i + 1))
            ++i;
        fn(static_cast<std::uint32_t>(first),
           static_cast<std::uint32_t>(i));
        ++i;
    }
}

BenchResult
benchMaskOps(int iters)
{
    BenchResult res;
    res.name = "mask_ops";
    const uvm::PageMask mask = fragmentedMask();
    volatile std::uint64_t sink = 0;

    Clock::time_point start = Clock::now();
    Clock::time_point t0 = start;
    std::uint64_t acc = 0;
    for (int i = 0; i < iters; ++i) {
        mem::forEachRun(mask, [&](std::uint32_t f, std::uint32_t l) {
            acc += l - f;
        });
    }
    sink = acc;
    double word_ms = msSince(t0);

    t0 = Clock::now();
    acc = 0;
    for (int i = 0; i < iters; ++i) {
        naiveForEachRun(mask, [&](std::uint32_t f, std::uint32_t l) {
            acc += l - f;
        });
    }
    sink = acc;
    double naive_ms = msSince(t0);

    t0 = Clock::now();
    std::uint32_t runs = 0;
    for (int i = 0; i < iters; ++i)
        runs += mem::countRuns(mask);
    sink = runs;
    double count_ms = msSince(t0);

    t0 = Clock::now();
    acc = 0;
    for (int i = 0; i < iters; ++i) {
        std::uint32_t first = static_cast<std::uint32_t>(i) % 256;
        acc += uvm::makeMask(first, first + 255).count();
    }
    sink = acc;
    double make_ms = msSince(t0);
    (void)sink;

    res.wall_ms = msSince(start);
    double n = iters;
    res.metrics = {
        {"foreachrun_per_sec", 1000.0 * n / word_ms},
        {"foreachrun_naive_per_sec", 1000.0 * n / naive_ms},
        {"foreachrun_speedup", naive_ms / word_ms},
        {"countruns_per_sec", 1000.0 * n / count_ms},
        {"makemask_per_sec", 1000.0 * n / make_ms},
    };
    return res;
}

BenchResult
benchDriverOps(int iters)
{
    BenchResult res;
    res.name = "driver_ops";
    Clock::time_point start = Clock::now();

    uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    cfg.gpu_memory = 1024 * mem::kBigPageSize;
    uvm::UvmDriver drv(cfg, interconnect::LinkSpec::pcie4());
    mem::VirtAddr base =
        drv.allocManaged(512 * mem::kBigPageSize, "perf");

    // Dense-index blockOf, striding across 512 blocks (cache-miss
    // shape: every probe leaves the previous block).
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
        mem::VirtAddr addr =
            base + (static_cast<std::uint64_t>(i) % 512) *
                       mem::kBigPageSize +
            4096;
        keep(drv.vaSpace().blockOf(addr));
    }
    double dense_ms = msSince(t0);

    // The hash-map index it replaced, probing the same population.
    std::unordered_map<std::uint64_t, uvm::VaBlock *> map_index;
    drv.vaSpace().forEachBlockAll([&](uvm::VaBlock &b) {
        map_index.emplace(b.base / mem::kBigPageSize, &b);
    });
    t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
        mem::VirtAddr addr =
            base + (static_cast<std::uint64_t>(i) % 512) *
                       mem::kBigPageSize +
            4096;
        auto it = map_index.find(addr / mem::kBigPageSize);
        keep(it == map_index.end() ? nullptr : it->second);
    }
    double map_ms = msSince(t0);

    // Counter-table row increments, the driver's hot-path
    // accounting.
    uvm::UvmStats stats;
    std::uint64_t &row = stats[uvm::UvmStat::bytes_h2d_gpu_fault];
    t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
        ++row;
        keep(row);
    }
    double inc_ms = msSince(t0);

    res.wall_ms = msSince(start);
    double n = iters;
    res.metrics = {
        {"blockof_per_sec", 1000.0 * n / dense_ms},
        {"blockof_map_per_sec", 1000.0 * n / map_ms},
        {"blockof_speedup", map_ms / dense_ms},
        {"counter_inc_per_sec", 1000.0 * n / inc_ms},
    };
    return res;
}

BenchResult
benchDriverDiscard(int cycles)
{
    BenchResult res;
    res.name = "driver_discard";
    Clock::time_point start = Clock::now();

    uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    cfg.gpu_memory = 1024 * mem::kBigPageSize;
    uvm::UvmDriver drv(cfg, interconnect::LinkSpec::pcie4());
    sim::Bytes size = 128 * mem::kBigPageSize;
    mem::VirtAddr base = drv.allocManaged(size, "perf");
    sim::SimTime t = drv.prefetch(base, size, uvm::ProcessorId::gpu(0), 0);
    // Warm the steady state (chunks allocated, counters live) before
    // counting heap traffic.
    for (int i = 0; i < 3; ++i) {
        t = drv.discard(base, size, uvm::DiscardMode::kEager, t);
        t = drv.prefetch(base, size, uvm::ProcessorId::gpu(0), t);
    }
    std::uint64_t allocs_before = heapAllocations();
    for (int i = 0; i < cycles; ++i) {
        t = drv.discard(base, size, uvm::DiscardMode::kEager, t);
        t = drv.prefetch(base, size, uvm::ProcessorId::gpu(0), t);
    }
    std::uint64_t allocs = heapAllocations() - allocs_before;

    res.wall_ms = msSince(start);
    res.metrics = {
        {"discard_rearm_per_sec", 1000.0 * cycles / res.wall_ms},
        {"allocs_per_iter", static_cast<double>(allocs) / cycles},
    };
    return res;
}

BenchResult
benchRuntimeStream(int iters)
{
    BenchResult res;
    res.name = "runtime_stream";
    Clock::time_point start = Clock::now();

    uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    cfg.gpu_memory = 256 * mem::kBigPageSize;
    cuda::Runtime rt(cfg, interconnect::LinkSpec::pcie4());
    const sim::Bytes buf_size = 64 * mem::kBigPageSize;
    mem::VirtAddr buf = rt.mallocManaged(buf_size, "perf.buf");
    for (int i = 0; i < iters; ++i) {
        rt.prefetchAsync(buf, buf_size, uvm::ProcessorId::gpu(0));
        cuda::KernelDesc k;
        k.name = "perf.kernel";
        k.accesses = {{buf, buf_size, uvm::AccessKind::kReadWrite}};
        k.compute = sim::microseconds(100);
        rt.launch(k);
        rt.discardAsync(buf, buf_size, uvm::DiscardMode::kEager);
    }
    rt.synchronize();

    res.wall_ms = msSince(start);
    double events = static_cast<double>(rt.eventQueue().executed());
    res.metrics = {
        {"simulated_events", events},
        {"events_per_sec", 1000.0 * events / res.wall_ms},
    };
    return res;
}

BenchResult
benchDlSweep(int jobs, bool quick)
{
    BenchResult res;
    // The parallel stage's name does not embed the job count, so the
    // stage set (and the gate) is the same on every host.
    res.name = jobs > 1 ? "dl_sweep_parallel" : "dl_sweep_serial";

    // A reduced grid: one network, the serial sweep stays seconds.
    std::vector<workloads::System> systems = {
        workloads::System::kUvmOpt, workloads::System::kUvmDiscard};
    uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    const auto nets = workloads::dl::NetSpec::all();
    const workloads::dl::NetSpec &net = nets.front();  // VGG-16
    std::vector<int> batches = quick ? std::vector<int>{40, 60}
                                     : std::vector<int>{40, 60, 75};

    struct Config {
        int batch;
        workloads::System sys;
    };
    std::vector<Config> grid;
    for (int batch : batches) {
        for (workloads::System sys : systems)
            grid.push_back(Config{batch, sys});
    }

    Clock::time_point start = Clock::now();
    double checksum = 0.0;
    runIndexedSweep(
        jobs, grid.size(),
        [&](std::size_t i) {
            workloads::dl::TrainParams p;
            p.net = net;
            p.batch_size = grid[i].batch;
            return workloads::dl::runTraining(
                grid[i].sys, p, interconnect::LinkSpec::pcie4(), cfg);
        },
        [&](std::size_t, workloads::dl::TrainResult &&r) {
            checksum += r.throughput;
        });
    res.wall_ms = msSince(start);
    res.metrics = {
        {"configs", static_cast<double>(grid.size())},
        {"throughput_checksum", checksum},
        {"jobs", static_cast<double>(jobs)},
    };
    return res;
}

BenchResult
benchE2eRadix(int reps)
{
    BenchResult res;
    res.name = "e2e_radix";
    workloads::RadixParams p;
    p.ovsp_ratio = 2.0;
    workloads::RunResult r;
    std::uint64_t allocs = 0;
    for (int i = 0; i < reps; ++i) {
        std::uint64_t allocs_before = heapAllocations();
        Clock::time_point start = Clock::now();
        r = workloads::runRadixSort(workloads::System::kUvmOpt, p,
                                    interconnect::LinkSpec::pcie4());
        double ms = msSince(start);
        allocs = heapAllocations() - allocs_before;
        res.wall_ms = i == 0 ? ms : std::min(res.wall_ms, ms);
    }
    res.metrics = {
        {"traffic_gb", r.trafficGb()},
        {"redundant_gb", static_cast<double>(r.redundant) / 1e9},
        {"allocs_per_run", static_cast<double>(allocs)},
        {"evictions_used", static_cast<double>(r.evictions_used)},
        {"evictions_discarded",
         static_cast<double>(r.evictions_discarded)},
        {"periods_simulated", static_cast<double>(r.periods_simulated)},
    };
    return res;
}

BenchResult
benchE2eDl(int reps)
{
    BenchResult res;
    res.name = "e2e_dl";
    workloads::dl::TrainParams p;
    for (const workloads::dl::NetSpec &net :
         workloads::dl::NetSpec::all()) {
        if (net.name == "ResNet-53")
            p.net = net;
    }
    const int batches[] = {56, 90};
    std::uint64_t walked = 0;
    std::uint64_t evicted_used = 0;
    std::uint64_t evicted_discarded = 0;
    std::uint64_t simulated = 0;
    double checksum = 0.0;
    std::uint64_t allocs = 0;
    for (int i = 0; i < reps; ++i) {
        walked = 0;
        evicted_used = 0;
        evicted_discarded = 0;
        simulated = 0;
        checksum = 0.0;
        std::uint64_t allocs_before = heapAllocations();
        Clock::time_point start = Clock::now();
        for (int batch : batches) {
            p.batch_size = batch;
            workloads::dl::TrainResult r = workloads::dl::runTraining(
                workloads::System::kUvmDiscard, p,
                interconnect::LinkSpec::pcie4());
            walked += r.blocks_walked;
            evicted_used += r.evictions_used;
            evicted_discarded += r.evictions_discarded;
            simulated += r.periods_simulated;
            checksum += r.throughput;
        }
        double ms = msSince(start);
        allocs = heapAllocations() - allocs_before;
        res.wall_ms = i == 0 ? ms : std::min(res.wall_ms, ms);
    }
    res.metrics = {
        {"blocks_walked", static_cast<double>(walked)},
        {"throughput_checksum", checksum},
        {"allocs_per_run",
         static_cast<double>(allocs) / std::size(batches)},
        {"evictions_used", static_cast<double>(evicted_used)},
        {"evictions_discarded", static_cast<double>(evicted_discarded)},
        {"periods_simulated", static_cast<double>(simulated)},
    };
    return res;
}

BenchResult
benchE2eHashJoin(int reps)
{
    BenchResult res;
    res.name = "e2e_hashjoin";
    workloads::HashJoinParams p;
    p.ovsp_ratio = 2.0;
    workloads::RunResult r;
    std::uint64_t allocs = 0;
    for (int i = 0; i < reps; ++i) {
        std::uint64_t allocs_before = heapAllocations();
        Clock::time_point start = Clock::now();
        r = workloads::runHashJoin(workloads::System::kUvmDiscard, p,
                                   interconnect::LinkSpec::pcie4());
        double ms = msSince(start);
        allocs = heapAllocations() - allocs_before;
        res.wall_ms = i == 0 ? ms : std::min(res.wall_ms, ms);
    }
    res.metrics = {
        {"blocks_walked", static_cast<double>(r.blocks_walked)},
        {"traffic_gb", r.trafficGb()},
        {"allocs_per_run", static_cast<double>(allocs)},
        {"evictions_used", static_cast<double>(r.evictions_used)},
        {"evictions_discarded",
         static_cast<double>(r.evictions_discarded)},
    };
    return res;
}

BenchResult
benchE2eVerify(int reps)
{
    BenchResult res;
    res.name = "e2e_verify";
    std::vector<std::string> scripts;
    for (bool faults : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 50; ++seed)
            scripts.push_back(fuzz::generateScenario(seed, faults));
    }
    std::uint64_t checks = 0;
    std::uint64_t allocs = 0;
    for (int i = 0; i < reps; ++i) {
        checks = 0;
        std::uint64_t allocs_before = heapAllocations();
        Clock::time_point start = Clock::now();
        for (const std::string &script : scripts) {
            verify::VerifyResult r = verify::runVerifiedScenario(script);
            if (!r.ok()) {
                std::fprintf(stderr, "e2e_verify: %s: %s\n",
                             verify::toString(r.outcome),
                             r.message.c_str());
                std::exit(1);
            }
            checks += r.checks;
        }
        double ms = msSince(start);
        allocs = heapAllocations() - allocs_before;
        res.wall_ms = i == 0 ? ms : std::min(res.wall_ms, ms);
    }
    res.metrics = {
        {"checks", static_cast<double>(checks)},
        {"allocs_per_script",
         static_cast<double>(allocs) / scripts.size()},
    };
    return res;
}

void
writeJson(const std::string &path, int jobs, bool quick,
          const std::vector<BenchResult> &benches)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "{\n  \"schema\": \"uvmd-perf-v1\",\n");
    std::fprintf(
        f,
        "  \"host\": { \"cores\": %d, \"jobs\": %d, "
        "\"quick\": %s },\n",
        hardwareJobs(), jobs,
        quick ? "true" : "false");
    std::fprintf(f, "  \"benches\": [\n");
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const BenchResult &b = benches[i];
        std::fprintf(f,
                     "    { \"name\": \"%s\", \"wall_ms\": %.3f, "
                     "\"metrics\": {",
                     b.name.c_str(), b.wall_ms);
        for (std::size_t m = 0; m < b.metrics.size(); ++m) {
            std::fprintf(f, "%s \"%s\": %.3f",
                         m == 0 ? "" : ",",
                         b.metrics[m].name.c_str(),
                         b.metrics[m].value);
        }
        std::fprintf(f, " } }%s\n",
                     i + 1 < benches.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
}

}  // namespace

/** The harness body; main() turns a sim::FatalError into exit 1. */
static int
runHarness(int argc, char **argv)
{
    int jobs = 1;
    bool quick = false;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
            jobs = parseJobsValue(argv[++i]);
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            jobs = parseJobsValue(arg + 7);
        } else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else if (std::strcmp(arg, "--quick") == 0) {
            quick = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--jobs N] [--out FILE] [--quick]\n",
                         argv[0]);
            return 2;
        }
    }

    banner("Host-performance harness (simulator wall-clock)");

    const int scale = quick ? 1 : 10;
    std::vector<BenchResult> benches;
    benches.push_back(benchMaskOps(100'000 * scale));
    benches.push_back(benchDriverOps(1'000'000 * scale));
    benches.push_back(benchDriverDiscard(2'000 * scale));
    benches.push_back(benchRuntimeStream(200 * scale));
    benches.push_back(benchDlSweep(1, quick));
    if (jobs > 1)
        benches.push_back(benchDlSweep(jobs, quick));
    benches.push_back(benchE2eRadix(quick ? 3 : 5));
    benches.push_back(benchE2eDl(quick ? 3 : 5));
    benches.push_back(benchE2eHashJoin(quick ? 3 : 5));
    benches.push_back(benchE2eVerify(quick ? 3 : 5));

    trace::Table table("Host perf (wall-clock of the simulator)");
    table.header({"Bench", "Wall (ms)", "Key metric"});
    for (const BenchResult &b : benches) {
        std::string key = "-";
        if (!b.metrics.empty()) {
            key = b.metrics[0].name + " = " +
                  trace::fmt(b.metrics[0].value, 1);
        }
        table.row({b.name, trace::fmt(b.wall_ms, 1), key});
    }
    table.print();

    if (!out.empty())
        writeJson(out, jobs, quick, benches);
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
