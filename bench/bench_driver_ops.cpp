/**
 * @file
 * google-benchmark microbenchmarks of the driver model's hot paths —
 * these measure *host* wall-clock of the simulator itself (block
 * lookup, page-queue churn, discard bitmap work, the access fast
 * path), not simulated time.  They guard against performance
 * regressions that would make the figure sweeps impractically slow.
 */

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "interconnect/link.hpp"
#include "uvm/driver.hpp"

namespace {

using namespace uvmd;

// ----------------------------------------------------------------
// Page-mask primitives: the word-scan helpers against the per-bit
// loops they replaced.  The "Naive" variants keep the old cost model
// alive in the report so the speedup stays measured, not assumed.
// ----------------------------------------------------------------

/** A fragmented mask: 8-page runs with 8-page gaps (64 runs), the
 *  worst realistic shape for run extraction. */
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

void
BM_MaskForEachRun(benchmark::State &state)
{
    uvm::PageMask mask = fragmentedMask();
    for (auto _ : state) {
        std::uint64_t acc = 0;
        mem::forEachRun(mask, [&](std::uint32_t f, std::uint32_t l) {
            acc += l - f;
        });
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_MaskForEachRun);

void
BM_MaskForEachRunNaive(benchmark::State &state)
{
    uvm::PageMask mask = fragmentedMask();
    for (auto _ : state) {
        std::uint64_t acc = 0;
        naiveForEachRun(mask, [&](std::uint32_t f, std::uint32_t l) {
            acc += l - f;
        });
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_MaskForEachRunNaive);

void
BM_MaskCountRuns(benchmark::State &state)
{
    uvm::PageMask mask = fragmentedMask();
    for (auto _ : state)
        benchmark::DoNotOptimize(mem::countRuns(mask));
}
BENCHMARK(BM_MaskCountRuns);

void
BM_MaskMakeMask(benchmark::State &state)
{
    std::uint32_t i = 0;
    for (auto _ : state) {
        std::uint32_t first = i++ % 256;
        benchmark::DoNotOptimize(
            uvm::makeMask(first, first + 255));
    }
}
BENCHMARK(BM_MaskMakeMask);

void
BM_MaskMakeMaskNaive(benchmark::State &state)
{
    std::uint32_t i = 0;
    for (auto _ : state) {
        std::uint32_t first = i++ % 256;
        uvm::PageMask mask;
        for (std::uint32_t p = first; p <= first + 255; ++p)
            mask.set(p);
        benchmark::DoNotOptimize(mask);
    }
}
BENCHMARK(BM_MaskMakeMaskNaive);

uvm::UvmConfig
benchConfig()
{
    uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    cfg.gpu_memory = 1024 * mem::kBigPageSize;
    return cfg;
}

void
BM_BlockLookup(benchmark::State &state)
{
    uvm::UvmDriver drv(benchConfig(), interconnect::LinkSpec::pcie4());
    mem::VirtAddr base =
        drv.allocManaged(512 * mem::kBigPageSize, "bench");
    std::uint64_t i = 0;
    for (auto _ : state) {
        mem::VirtAddr addr =
            base + (i++ % 512) * mem::kBigPageSize + 4096;
        benchmark::DoNotOptimize(drv.vaSpace().blockOf(addr));
    }
}
BENCHMARK(BM_BlockLookup);

/**
 * The hash-map block index the dense index replaced, kept benchmarked
 * alongside (as done for the naive mask loops) so the lookup speedup
 * stays measured.  The map is rebuilt from the live VaSpace, so both
 * benchmarks probe identical block populations.
 */
void
BM_BlockLookupMapReference(benchmark::State &state)
{
    uvm::UvmDriver drv(benchConfig(), interconnect::LinkSpec::pcie4());
    mem::VirtAddr base =
        drv.allocManaged(512 * mem::kBigPageSize, "bench");
    std::unordered_map<std::uint64_t, uvm::VaBlock *> index;
    drv.vaSpace().forEachBlockAll([&](uvm::VaBlock &b) {
        index.emplace(b.base / mem::kBigPageSize, &b);
    });
    std::uint64_t i = 0;
    for (auto _ : state) {
        mem::VirtAddr addr =
            base + (i++ % 512) * mem::kBigPageSize + 4096;
        auto it = index.find(addr / mem::kBigPageSize);
        benchmark::DoNotOptimize(it == index.end() ? nullptr
                                                   : it->second);
    }
}
BENCHMARK(BM_BlockLookupMapReference);

/** Same-block streak: the one-entry cache turns the lookup into a
 *  subtract-and-compare. */
void
BM_BlockLookupStreak(benchmark::State &state)
{
    uvm::UvmDriver drv(benchConfig(), interconnect::LinkSpec::pcie4());
    mem::VirtAddr base =
        drv.allocManaged(512 * mem::kBigPageSize, "bench");
    std::uint64_t i = 0;
    for (auto _ : state) {
        mem::VirtAddr addr = base + (i++ % 512) * mem::kSmallPageSize;
        benchmark::DoNotOptimize(drv.vaSpace().blockOf(addr));
    }
}
BENCHMARK(BM_BlockLookupStreak);

void
BM_ForEachBlock(benchmark::State &state)
{
    uvm::UvmDriver drv(benchConfig(), interconnect::LinkSpec::pcie4());
    sim::Bytes size = 64 * mem::kBigPageSize;
    mem::VirtAddr base = drv.allocManaged(size, "bench");
    for (auto _ : state) {
        std::uint64_t acc = 0;
        drv.vaSpace().forEachBlock(
            base, size, [&](uvm::VaBlock &b, const uvm::PageMask &m) {
                acc += b.base + m.count();
            });
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_ForEachBlock);

// ----------------------------------------------------------------
// Stat counters: one increment of a counter-table row.
// ----------------------------------------------------------------

void
BM_CounterRowIncrement(benchmark::State &state)
{
    uvm::UvmStats stats;
    std::uint64_t &row = stats[uvm::UvmStat::bytes_h2d_gpu_fault];
    for (auto _ : state) {
        ++row;
        benchmark::DoNotOptimize(row);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_CounterRowIncrement);

void
BM_ResidentAccessFastPath(benchmark::State &state)
{
    uvm::UvmDriver drv(benchConfig(), interconnect::LinkSpec::pcie4());
    sim::Bytes size = 256 * mem::kBigPageSize;
    mem::VirtAddr base = drv.allocManaged(size, "bench");
    sim::SimTime t =
        drv.prefetch(base, size, uvm::ProcessorId::gpu(0), 0);
    std::vector<uvm::Access> accesses{
        {base, size, uvm::AccessKind::kReadWrite}};
    for (auto _ : state)
        t = drv.gpuAccess(0, accesses, t);
    state.SetBytesProcessed(state.iterations() * size);
}
BENCHMARK(BM_ResidentAccessFastPath);

void
BM_DiscardRearmCycle(benchmark::State &state)
{
    uvm::UvmDriver drv(benchConfig(), interconnect::LinkSpec::pcie4());
    sim::Bytes size = 128 * mem::kBigPageSize;
    mem::VirtAddr base = drv.allocManaged(size, "bench");
    sim::SimTime t =
        drv.prefetch(base, size, uvm::ProcessorId::gpu(0), 0);
    auto mode = state.range(0) == 0 ? uvm::DiscardMode::kEager
                                    : uvm::DiscardMode::kLazy;
    for (auto _ : state) {
        t = drv.discard(base, size, mode, t);
        t = drv.prefetch(base, size, uvm::ProcessorId::gpu(0), t);
    }
    state.SetBytesProcessed(state.iterations() * size);
}
BENCHMARK(BM_DiscardRearmCycle)->Arg(0)->Arg(1);

void
BM_EvictionCycle(benchmark::State &state)
{
    uvm::UvmConfig cfg = benchConfig();
    cfg.gpu_memory = 64 * mem::kBigPageSize;
    uvm::UvmDriver drv(cfg, interconnect::LinkSpec::pcie4());
    sim::Bytes size = 64 * mem::kBigPageSize;
    mem::VirtAddr a = drv.allocManaged(size, "a");
    mem::VirtAddr b = drv.allocManaged(size, "b");
    sim::SimTime t = 0;
    for (auto _ : state) {
        // Ping-pong two ranges through a framebuffer sized for one.
        t = drv.prefetch(a, size, uvm::ProcessorId::gpu(0), t);
        t = drv.prefetch(b, size, uvm::ProcessorId::gpu(0), t);
    }
    state.SetBytesProcessed(state.iterations() * 2 * size);
}
BENCHMARK(BM_EvictionCycle);

void
BM_HostRoundTrip(benchmark::State &state)
{
    uvm::UvmDriver drv(benchConfig(), interconnect::LinkSpec::pcie4());
    sim::Bytes size = 64 * mem::kBigPageSize;
    mem::VirtAddr base = drv.allocManaged(size, "bench");
    sim::SimTime t = 0;
    for (auto _ : state) {
        t = drv.prefetch(base, size, uvm::ProcessorId::gpu(0), t);
        t = drv.hostAccess(base, size, uvm::AccessKind::kReadWrite, t);
    }
    state.SetBytesProcessed(state.iterations() * 2 * size);
}
BENCHMARK(BM_HostRoundTrip);

}  // namespace

BENCHMARK_MAIN();
