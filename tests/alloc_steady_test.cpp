/**
 * @file
 * Allocation-counting proof of the zero-allocation steady state.
 *
 * This binary overrides the global operator new/delete pair with
 * counting wrappers, warms a driver (ranges created, chunks
 * allocated, pages populated and mapped), then runs the steady-state
 * driver operations — access, prefetch, discard (both modes), host
 * round trips — and asserts the heap was never touched.
 *
 * The counter lives in this test binary only; the library itself is
 * unmodified.  Everything the steady state needs is fixed or pooled
 * at construction: counter tables (sim/stats.hpp), the dense block
 * index and the va_block arena (uvm/va_space.hpp), and the
 * SmallVec-backed engine/observer bookkeeping (sim/arena.hpp).
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "uvm/driver.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

std::uint64_t
allocCount()
{
    return g_news.load(std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t n)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::size_t align)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (align < sizeof(void *))
        align = sizeof(void *);
    if (void *p = std::aligned_alloc(
            align, (n + align - 1) / align * align))
        return p;
    throw std::bad_alloc();
}

}  // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace uvmd {
namespace {

constexpr sim::Bytes kRangeBytes = 4 * mem::kBigPageSize;

/** One steady-state iteration over a warmed range: eager and lazy
 *  discard/prefetch/access cycles plus a host round trip. */
sim::SimTime
steadyIteration(uvm::UvmDriver &drv, mem::VirtAddr base,
                const std::vector<uvm::Access> &accesses,
                sim::SimTime t)
{
    using uvm::DiscardMode;
    // Eager discard -> prefetch re-arm -> kernel access.
    t = drv.discard(base, kRangeBytes, DiscardMode::kEager, t);
    t = drv.prefetch(base, kRangeBytes, uvm::ProcessorId::gpu(0), t);
    t = drv.gpuAccess(0, accesses, t);
    // Lazy discard -> prefetch (dirty-bit re-arm) -> kernel access.
    t = drv.discard(base, kRangeBytes, DiscardMode::kLazy, t);
    t = drv.prefetch(base, kRangeBytes, uvm::ProcessorId::gpu(0), t);
    t = drv.gpuAccess(0, accesses, t);
    // Host round trip: D2H migration, then fault-driven H2D return.
    t = drv.hostAccess(base, kRangeBytes, uvm::AccessKind::kRead, t);
    t = drv.gpuAccess(0, accesses, t);
    return t;
}

TEST(AllocSteady, WarmedDriverOpsPerformZeroHeapAllocations)
{
    uvm::UvmConfig cfg;
    cfg.gpu_memory = 64 * mem::kBigPageSize;
    uvm::UvmDriver drv(cfg, interconnect::LinkSpec::pcie4());

    mem::VirtAddr base = drv.allocManaged(kRangeBytes, "steady");
    std::vector<uvm::Access> accesses{
        {base, kRangeBytes, uvm::AccessKind::kReadWrite}};

    // Warm-up: populate pages, allocate chunks, build mappings, and
    // let every container (queues, tails, counters) reach its
    // steady-state footprint.
    sim::SimTime t = 0;
    t = drv.gpuAccess(0, accesses, t);
    for (int i = 0; i < 3; ++i)
        t = steadyIteration(drv, base, accesses, t);

    const std::uint64_t before = allocCount();
    constexpr int kIters = 50;
    for (int i = 0; i < kIters; ++i)
        t = steadyIteration(drv, base, accesses, t);
    const std::uint64_t delta = allocCount() - before;

    EXPECT_EQ(delta, 0u)
        << "steady-state driver ops allocated " << delta
        << " times over " << kIters << " iterations";
    EXPECT_GT(t, 0);

    // The counters the loop exercised are still readable by name.
    EXPECT_GT(drv.counters().get("prefetch_calls"), 0u);
    EXPECT_GT(drv.counters().get("discarded_pages"), 0u);
    drv.checkInvariants();
}

TEST(AllocSteady, CounterIncrementDoesNotAllocate)
{
    uvm::UvmStats t;
    const std::uint64_t before = allocCount();
    for (int i = 0; i < 1000; ++i)
        t[uvm::UvmStat::bytes_h2d_gpu_fault] += 4096;
    EXPECT_EQ(allocCount() - before, 0u);
    EXPECT_EQ(t.group().get("bytes_h2d.gpu_fault"), 4096u * 1000u);
}

TEST(AllocSteady, WarmBlockLookupDoesNotAllocate)
{
    uvm::VaSpace space;
    mem::VirtAddr base = space.createRange(kRangeBytes, "lookup");
    const std::uint64_t before = allocCount();
    std::uint64_t hits = 0;
    for (int i = 0; i < 1000; ++i) {
        for (sim::Bytes off = 0; off < kRangeBytes;
             off += mem::kBigPageSize) {
            if (space.blockOf(base + off))
                ++hits;
        }
    }
    EXPECT_EQ(allocCount() - before, 0u);
    EXPECT_EQ(hits, 4000u);
}

}  // namespace
}  // namespace uvmd
