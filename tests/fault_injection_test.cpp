/**
 * @file
 * Fault injection and recovery: transient DMA failures with bounded
 * retry/backoff, ECC-style chunk retirement, mid-run link degradation
 * and copy-engine loss, injected allocation failures, OOM fallback to
 * remote access, the recoverable runtime error codes, and the
 * observability contract (observer fault events and dumpStatsJson
 * counters reconcile with the injector's own tally).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>

#include "cuda/runtime.hpp"
#include "sim/fault_injector.hpp"
#include "test_util.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {
namespace {

using interconnect::Direction;
using mem::kBigPageSize;

std::vector<Access>
rw(mem::VirtAddr addr, sim::Bytes size)
{
    return {{addr, size, AccessKind::kReadWrite}};
}

// ------------------------------------------------------------------
// FaultInjector unit behaviour
// ------------------------------------------------------------------

TEST(FaultInjector, DisabledInjectorNeverFiresOrTallies)
{
    sim::FaultPlan plan;  // enabled defaults to false
    plan.dma_fault_rate = 1.0;
    plan.alloc_fail_rate = 1.0;
    plan.chunk_retire_rate = 1.0;
    sim::FaultInjector inj(plan);
    EXPECT_FALSE(inj.enabled());
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(inj.dmaDescriptorFails());
        EXPECT_FALSE(inj.allocFails());
        EXPECT_FALSE(inj.chunkFails());
    }
    EXPECT_EQ(inj.totalInjected(), 0u);
}

TEST(FaultInjector, SameSeedSameSchedule)
{
    sim::FaultPlan plan;
    plan.enabled = true;
    plan.seed = 7;
    plan.dma_fault_rate = 0.3;
    sim::FaultInjector a(plan), b(plan);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(a.dmaDescriptorFails(), b.dmaDescriptorFails());
    EXPECT_EQ(a.totalInjected(), b.totalInjected());
}

TEST(FaultInjector, EveryPositiveProbeIsTallied)
{
    sim::FaultPlan plan;
    plan.enabled = true;
    plan.dma_fault_rate = 0.5;
    plan.alloc_fail_rate = 0.5;
    sim::FaultInjector inj(plan);
    std::uint64_t expect = 0;
    for (int i = 0; i < 100; ++i) {
        if (inj.dmaDescriptorFails())
            ++expect;
        if (inj.allocFails())
            ++expect;
    }
    EXPECT_GT(expect, 0u);
    EXPECT_EQ(inj.totalInjected(), expect);
    EXPECT_EQ(inj.tally().get("dma_faults") +
                  inj.tally().get("alloc_faults"),
              expect);
}

TEST(FaultInjector, BadPlanIsRejected)
{
    sim::FaultPlan plan;
    plan.enabled = true;
    plan.dma_fault_rate = 1.5;
    EXPECT_THROW(sim::FaultInjector{plan}, sim::FatalError);

    sim::FaultPlan neg;
    neg.enabled = true;
    neg.dma_max_retries = -1;
    EXPECT_THROW(sim::FaultInjector{neg}, sim::FatalError);

    sim::FaultPlan link;
    link.enabled = true;
    link.link_events.push_back({0, 0, 0.0, -1, 0});  // factor 0
    EXPECT_THROW(sim::FaultInjector{link}, sim::FatalError);
}

TEST(FaultInjector, LinkEventsReturnedOnceInThresholdOrder)
{
    sim::FaultPlan plan;
    plan.enabled = true;
    plan.link_events.push_back({100, 0, 0.5, -1, 0});
    plan.link_events.push_back({10, 0, 0.8, -1, 0});
    sim::FaultInjector inj(plan);

    EXPECT_TRUE(inj.takeDueLinkEvents(5).empty());
    auto due = inj.takeDueLinkEvents(50);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].bandwidth_factor, 0.8);
    due = inj.takeDueLinkEvents(200);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].bandwidth_factor, 0.5);
    EXPECT_TRUE(inj.takeDueLinkEvents(1000).empty());
}

// ------------------------------------------------------------------
// (a) Transient DMA faults: bounded retry with backoff
// ------------------------------------------------------------------

uvm::UvmConfig
faultyDmaConfig(double rate, std::uint64_t seed = 1)
{
    uvm::UvmConfig cfg = test::tinyConfig();
    cfg.faults.enabled = true;
    cfg.faults.seed = seed;
    cfg.faults.dma_fault_rate = rate;
    cfg.faults.dma_max_retries = 16;  // keep permanent failure out
    return cfg;
}

TEST(DmaFaults, RetriesAddTimeAndReconcileWithInjector)
{
    UvmDriver clean(test::tinyConfig(), test::testLink());
    UvmDriver faulty(faultyDmaConfig(0.5), test::testLink());

    auto run = [](UvmDriver &drv) {
        sim::SimTime t = 0;
        mem::VirtAddr a = drv.allocManaged(4 * kBigPageSize, "a");
        t = drv.hostAccess(a, 4 * kBigPageSize, AccessKind::kWrite, t);
        t = drv.prefetch(a, 4 * kBigPageSize, ProcessorId::gpu(0), t);
        t = drv.hostAccess(a, 4 * kBigPageSize, AccessKind::kRead, t);
        return t;
    };
    sim::SimTime t_clean = run(clean);
    sim::SimTime t_faulty = run(faulty);

    const auto &c = faulty.counters();
    std::uint64_t retries = c.get("transfer_retries");
    EXPECT_GT(retries, 0u);
    // Retried descriptors pay setup + wire time + backoff again.
    EXPECT_GT(t_faulty, t_clean);
    EXPECT_GT(c.get("transfer_retry_ns"), 0u);
    // A retry re-sends a descriptor already counted: the ledger's
    // bytes and descriptors equal the clean run's.
    EXPECT_EQ(faulty.totalTrafficBytes(), clean.totalTrafficBytes());
    EXPECT_EQ(c.get("dma_descriptors"),
              clean.counters().get("dma_descriptors"));
    // Per-cause attribution sums to the total.
    EXPECT_EQ(c.get("transfer_retries.prefetch") +
                  c.get("transfer_retries.eviction") +
                  c.get("transfer_retries.gpu_fault") +
                  c.get("transfer_retries.cpu_fault") +
                  c.get("transfer_retries.raw"),
              retries);
    // Every injected fault is visible in the driver counter, and the
    // driver counter matches the injector's own book.
    EXPECT_EQ(c.get("fault_injected"),
              faulty.faultInjector().totalInjected());
    EXPECT_EQ(faulty.faultInjector().tally().get("dma_faults"),
              c.get("fault_injected"));
    faulty.checkInvariants();
}

TEST(DmaFaults, DataSurvivesRetriedTransfers)
{
    UvmDriver drv(faultyDmaConfig(0.5, /*seed=*/3), test::testLink());
    sim::SimTime t = 0;
    mem::VirtAddr a = drv.allocManaged(2 * kBigPageSize, "a");
    t = drv.hostAccess(a, 2 * kBigPageSize, AccessKind::kWrite, t);
    drv.pokeValue<std::uint64_t>(a + 128, 0xfeedface);
    t = drv.prefetch(a, 2 * kBigPageSize, ProcessorId::gpu(0), t);
    t = drv.hostAccess(a, 2 * kBigPageSize, AccessKind::kRead, t);
    EXPECT_EQ(drv.peekValue<std::uint64_t>(a + 128), 0xfeedfaceu);
    drv.checkInvariants();
}

TEST(DmaFaults, ExhaustedRetriesAreFatal)
{
    uvm::UvmConfig cfg = test::tinyConfig();
    cfg.faults.enabled = true;
    cfg.faults.dma_fault_rate = 1.0;  // every attempt fails
    cfg.faults.dma_max_retries = 2;
    UvmDriver drv(cfg, test::testLink());
    mem::VirtAddr a = drv.allocManaged(kBigPageSize, "a");
    sim::SimTime t = drv.hostAccess(a, kBigPageSize,
                                    AccessKind::kWrite, 0);
    EXPECT_THROW(drv.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t),
                 sim::FatalError);
}

TEST(DmaFaults, FaultAndRetryEventsReachTheTransferLog)
{
    UvmDriver drv(faultyDmaConfig(0.5), test::testLink());
    test::EventRecorder log;
    drv.setObserver(&log);
    sim::SimTime t = 0;
    mem::VirtAddr a = drv.allocManaged(4 * kBigPageSize, "a");
    t = drv.hostAccess(a, 4 * kBigPageSize, AccessKind::kWrite, t);
    t = drv.prefetch(a, 4 * kBigPageSize, ProcessorId::gpu(0), t);

    std::size_t faults = log.faults(FaultEvent::kDmaFault);
    EXPECT_GT(faults, 0u);
    EXPECT_EQ(faults, drv.counters().get("fault_injected"));
    EXPECT_EQ(log.faults(FaultEvent::kDmaRetry),
              drv.counters().get("transfer_retries"));
}

// ------------------------------------------------------------------
// (b) ECC-style chunk retirement
// ------------------------------------------------------------------

TEST(ChunkRetirement, RetiresChunksAndShrinksCapacity)
{
    uvm::UvmConfig cfg = test::tinyConfig(/*chunks=*/4);
    cfg.faults.enabled = true;
    cfg.faults.chunk_retire_rate = 1.0;  // every driver op
    cfg.faults.chunk_retire_floor = 2;
    UvmDriver drv(cfg, test::testLink());

    sim::SimTime t = 0;
    mem::VirtAddr a = drv.allocManaged(3 * kBigPageSize, "a");
    for (int i = 0; i < 3; ++i) {
        t = drv.hostAccess(a + i * kBigPageSize, kBigPageSize,
                           AccessKind::kWrite, t);
        drv.pokeValue<std::uint64_t>(a + i * kBigPageSize, 500 + i);
    }
    // Each prefetch entry point first rolls for a chunk failure; with
    // rate 1.0 every op that has a resident candidate retires one
    // chunk, until the floor stops it.
    for (int i = 0; i < 3; ++i)
        t = drv.prefetch(a + i * kBigPageSize, kBigPageSize,
                         ProcessorId::gpu(0), t);
    t = drv.gpuAccess(0, rw(a, kBigPageSize), t);
    t = drv.gpuAccess(0, rw(a + kBigPageSize, kBigPageSize), t);

    const auto &alloc = drv.allocator(0);
    EXPECT_GT(alloc.retiredChunks(), 0u);
    // The floor holds: usable (non-reserved, non-retired) capacity
    // never drops below chunk_retire_floor.
    EXPECT_GE(alloc.totalChunks() - alloc.reservedChunks() -
                  alloc.retiredChunks(),
              cfg.faults.chunk_retire_floor);
    EXPECT_EQ(drv.counters().get("pages_retired"),
              alloc.retiredChunks() * mem::kPagesPerBlock);
    EXPECT_EQ(drv.counters().get("fault_injected"),
              drv.faultInjector().totalInjected());

    // Resident data was migrated off the bad chunks, not lost.
    for (std::uint64_t i = 0; i < 3; ++i) {
        EXPECT_EQ(
            drv.peekValue<std::uint64_t>(a + i * kBigPageSize),
            500 + i);
    }
    drv.checkInvariants();
}

TEST(ChunkRetirement, RetirementEventsReachTheTransferLog)
{
    uvm::UvmConfig cfg = test::tinyConfig(/*chunks=*/4);
    cfg.faults.enabled = true;
    cfg.faults.chunk_retire_rate = 1.0;
    cfg.faults.chunk_retire_floor = 2;
    UvmDriver drv(cfg, test::testLink());
    test::EventRecorder log;
    drv.setObserver(&log);

    sim::SimTime t = 0;
    mem::VirtAddr a = drv.allocManaged(2 * kBigPageSize, "a");
    t = drv.prefetch(a, 2 * kBigPageSize, ProcessorId::gpu(0), t);
    t = drv.gpuAccess(0, rw(a, kBigPageSize), t);
    t = drv.gpuAccess(0, rw(a, kBigPageSize), t);

    std::size_t retirements = 0;
    for (const auto &e : log.only("X")) {
        if (e.a == int(FaultEvent::kChunkRetired)) {
            ++retirements;
            EXPECT_EQ(e.b, int(mem::kPagesPerBlock));
        }
    }
    EXPECT_EQ(retirements, drv.allocator(0).retiredChunks());
    EXPECT_GT(retirements, 0u);
}

TEST(ChunkRetirement, FloorBlocksRetirementEntirely)
{
    // With only floor-many chunks there is never a candidate, so a
    // rate of 1.0 must not draw (empty candidate set) or retire.
    uvm::UvmConfig cfg = test::tinyConfig(/*chunks=*/2);
    cfg.faults.enabled = true;
    cfg.faults.chunk_retire_rate = 1.0;
    cfg.faults.chunk_retire_floor = 2;
    UvmDriver drv(cfg, test::testLink());
    sim::SimTime t = 0;
    mem::VirtAddr a = drv.allocManaged(2 * kBigPageSize, "a");
    t = drv.prefetch(a, 2 * kBigPageSize, ProcessorId::gpu(0), t);
    t = drv.gpuAccess(0, rw(a, 2 * kBigPageSize), t);
    EXPECT_EQ(drv.allocator(0).retiredChunks(), 0u);
    EXPECT_EQ(drv.counters().get("pages_retired"), 0u);
    drv.checkInvariants();
}

// ------------------------------------------------------------------
// (c) Link degradation and copy-engine loss
// ------------------------------------------------------------------

TEST(LinkFaults, DegradationSlowsLaterTransfers)
{
    uvm::UvmConfig cfg = test::tinyConfig();
    cfg.faults.enabled = true;
    // Halve bandwidth once the first descriptor has been issued.
    cfg.faults.link_events.push_back({1, 0, 0.5, -1, 0});
    UvmDriver drv(cfg, test::testLink());
    UvmDriver clean(test::tinyConfig(), test::testLink());

    auto transferPair = [](UvmDriver &d) {
        sim::SimTime t = 0;
        mem::VirtAddr a = d.allocManaged(2 * kBigPageSize, "a");
        t = d.hostAccess(a, 2 * kBigPageSize, AccessKind::kWrite, t);
        sim::SimTime t1 =
            d.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t);
        sim::SimTime t2 = d.prefetch(a + kBigPageSize, kBigPageSize,
                                     ProcessorId::gpu(0), t1);
        return std::pair<sim::SimDuration, sim::SimDuration>(t1 - t,
                                                             t2 - t1);
    };
    auto [first_f, second_f] = transferPair(drv);
    auto [first_c, second_c] = transferPair(clean);

    // The event fires after the first prefetch's descriptor: the
    // first transfer runs at full speed, the second at half.
    EXPECT_EQ(first_f, first_c);
    EXPECT_GT(second_f, second_c);
    EXPECT_EQ(drv.link(0).bandwidthFactor(), 0.5);
    EXPECT_EQ(drv.counters().get("fault_injected"),
              drv.faultInjector().totalInjected());
    EXPECT_EQ(drv.faultInjector().tally().get("link_degrades"), 1u);
}

TEST(LinkFaults, OfflineEngineRemovesItFromService)
{
    uvm::UvmConfig cfg = test::tinyConfig();
    cfg.copy_engines_per_dir = 2;
    cfg.faults.enabled = true;
    cfg.faults.link_events.push_back(
        {1, 0, 1.0, /*offline_engine=*/0, /*offline_dir=*/0});
    UvmDriver drv(cfg, test::testLink());

    sim::SimTime t = 0;
    mem::VirtAddr a = drv.allocManaged(3 * kBigPageSize, "a");
    t = drv.hostAccess(a, 3 * kBigPageSize, AccessKind::kWrite, t);
    t = drv.prefetch(a, 3 * kBigPageSize, ProcessorId::gpu(0), t);

    const interconnect::Link &link = drv.link(0);
    EXPECT_TRUE(link.engineOffline(Direction::kHostToDevice, 0));
    EXPECT_EQ(link.onlineEngines(Direction::kHostToDevice), 1);
    EXPECT_EQ(link.onlineEngines(Direction::kDeviceToHost), 2);
    EXPECT_EQ(drv.faultInjector().tally().get("engines_offlined"), 1u);
    EXPECT_EQ(drv.counters().get("fault_injected"),
              drv.faultInjector().totalInjected());

    // The survivor still carries traffic.
    t = drv.hostAccess(a, 3 * kBigPageSize, AccessKind::kRead, t);
    t = drv.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t);
    drv.checkInvariants();
}

TEST(LinkFaults, LastOnlineEngineCannotBeKilled)
{
    // One engine per direction: the offline event must be refused and
    // must then NOT count as an injected fault.
    uvm::UvmConfig cfg = test::tinyConfig();
    cfg.faults.enabled = true;
    cfg.faults.link_events.push_back({1, 0, 1.0, 0, 0});
    UvmDriver drv(cfg, test::testLink());

    sim::SimTime t = 0;
    mem::VirtAddr a = drv.allocManaged(2 * kBigPageSize, "a");
    t = drv.hostAccess(a, 2 * kBigPageSize, AccessKind::kWrite, t);
    t = drv.prefetch(a, 2 * kBigPageSize, ProcessorId::gpu(0), t);

    EXPECT_FALSE(
        drv.link(0).engineOffline(Direction::kHostToDevice, 0));
    EXPECT_EQ(drv.faultInjector().totalInjected(), 0u);
    EXPECT_EQ(drv.counters().get("fault_injected"), 0u);
}

// ------------------------------------------------------------------
// (d) Allocation failure, bounded evict-retry, and OOM fallback
// ------------------------------------------------------------------

TEST(AllocFaults, InjectedFailuresAreRetriedAndBounded)
{
    uvm::UvmConfig cfg = test::tinyConfig();
    cfg.faults.enabled = true;
    cfg.faults.alloc_fail_rate = 1.0;  // every allocation trips
    cfg.faults.alloc_max_retries = 2;
    UvmDriver drv(cfg, test::testLink());

    sim::SimTime t = 0;
    mem::VirtAddr a = drv.allocManaged(2 * kBigPageSize, "a");
    t = drv.prefetch(a, 2 * kBigPageSize, ProcessorId::gpu(0), t);

    // The prefetch completes despite the injector: the bounded loop
    // stands the injector down after alloc_max_retries tries per
    // allocation.  Recovery treats each injected failure as memory
    // pressure, so block 2's retry loop evicts block 1 — one chunk
    // remains allocated at the end, and both blocks' pages are live
    // (block 1's back on the CPU).
    EXPECT_EQ(drv.allocator(0).allocatedChunks(), 1u);
    EXPECT_EQ(drv.faultInjector().tally().get("alloc_faults"),
              2u * cfg.faults.alloc_max_retries);
    EXPECT_EQ(drv.counters().get("fault_injected"),
              drv.faultInjector().totalInjected());
    drv.checkInvariants();
}

TEST(OomHandling, TrueExhaustionThrowsTypedError)
{
    UvmDriver drv(test::tinyConfig(/*chunks=*/4), test::testLink());
    drv.reserveGpuMemory(0, 4 * kBigPageSize);
    mem::VirtAddr a = drv.allocManaged(kBigPageSize, "a");
    try {
        drv.prefetch(a, kBigPageSize, ProcessorId::gpu(0), 0);
        FAIL() << "expected GpuOomError";
    } catch (const GpuOomError &err) {
        EXPECT_EQ(err.gpu_id, 0);
    }
}

TEST(OomHandling, RemoteFallbackServesAccessInPlace)
{
    uvm::UvmConfig cfg = test::tinyConfig(/*chunks=*/4);
    cfg.faults.enabled = true;
    cfg.faults.oom_remote_fallback = true;
    UvmDriver drv(cfg, test::testLink());
    drv.reserveGpuMemory(0, 4 * kBigPageSize);

    sim::SimTime t = 0;
    mem::VirtAddr a = drv.allocManaged(kBigPageSize, "a");
    t = drv.hostAccess(a, kBigPageSize, AccessKind::kWrite, t);
    drv.pokeValue<std::uint64_t>(a, 0xbeef);

    // The GPU access cannot migrate (zero usable chunks) but the
    // Section-2.3 fallback maps the pages in place over the bus.
    t = drv.gpuAccess(0, rw(a, kBigPageSize), t);
    EXPECT_GT(t, 0);
    EXPECT_EQ(drv.counters().get("oom_fallbacks"), 1u);
    VaBlock *b = drv.vaSpace().blockOf(a);
    EXPECT_FALSE(b->has_gpu_chunk);
    EXPECT_TRUE(b->resident_cpu.any());
    EXPECT_EQ(drv.peekValue<std::uint64_t>(a), 0xbeefu);
    drv.checkInvariants();
}

TEST(OomHandling, FallbackPrefetchDegradesToNoOp)
{
    uvm::UvmConfig cfg = test::tinyConfig(/*chunks=*/4);
    cfg.faults.enabled = true;
    cfg.faults.oom_remote_fallback = true;
    UvmDriver drv(cfg, test::testLink());
    drv.reserveGpuMemory(0, 4 * kBigPageSize);

    sim::SimTime t = 0;
    mem::VirtAddr a = drv.allocManaged(kBigPageSize, "a");
    t = drv.hostAccess(a, kBigPageSize, AccessKind::kWrite, t);
    // A prefetch is a hint: under fallback it just skips migrating.
    t = drv.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t);
    EXPECT_EQ(drv.counters().get("oom_fallbacks"), 1u);
    EXPECT_FALSE(drv.vaSpace().blockOf(a)->has_gpu_chunk);
    drv.checkInvariants();
}

// ------------------------------------------------------------------
// Recoverable runtime error codes
// ------------------------------------------------------------------

TEST(RuntimeErrors, TryMallocDeviceReportsExhaustion)
{
    cuda::Runtime rt(test::tinyConfig(/*chunks=*/4), test::testLink());
    mem::VirtAddr out = 0;
    EXPECT_EQ(rt.tryMallocDevice(16 * kBigPageSize, "big", &out),
              cuda::CudaError::kErrorMemoryAllocation);
    EXPECT_EQ(out, 0u);  // untouched on failure

    EXPECT_EQ(rt.tryMallocDevice(2 * kBigPageSize, "ok", &out),
              cuda::CudaError::kSuccess);
    EXPECT_NE(out, 0u);
    EXPECT_EQ(rt.tryFreeDevice(out), cuda::CudaError::kSuccess);
}

TEST(RuntimeErrors, TryFreeDeviceRejectsUnknownAndDoubleFree)
{
    cuda::Runtime rt(test::tinyConfig(), test::testLink());
    EXPECT_EQ(rt.tryFreeDevice(mem::VirtAddr{0xdead0000}),
              cuda::CudaError::kErrorInvalidValue);

    mem::VirtAddr buf = rt.mallocDevice(kBigPageSize, "buf");
    EXPECT_EQ(rt.tryFreeDevice(buf), cuda::CudaError::kSuccess);
    EXPECT_EQ(rt.tryFreeDevice(buf),
              cuda::CudaError::kErrorInvalidValue);
}

TEST(RuntimeErrors, TryFreeManagedRejectsBadPointer)
{
    cuda::Runtime rt(test::tinyConfig(), test::testLink());
    EXPECT_EQ(rt.tryFreeManaged(mem::VirtAddr{0x1234}),
              cuda::CudaError::kErrorInvalidValue);
    mem::VirtAddr buf = rt.mallocManaged(kBigPageSize, "buf");
    EXPECT_EQ(rt.tryFreeManaged(buf), cuda::CudaError::kSuccess);
    EXPECT_EQ(rt.tryFreeManaged(buf),
              cuda::CudaError::kErrorInvalidValue);
}

TEST(RuntimeErrors, AsyncOpsValidateTheirRange)
{
    cuda::Runtime rt(test::tinyConfig(), test::testLink());
    mem::VirtAddr buf = rt.mallocManaged(kBigPageSize, "buf");

    EXPECT_EQ(rt.prefetchAsync(buf, kBigPageSize,
                               ProcessorId::gpu(0)),
              cuda::CudaError::kSuccess);
    // Unmanaged base address.
    EXPECT_EQ(rt.prefetchAsync(mem::VirtAddr{0x42}, 64,
                               ProcessorId::gpu(0)),
              cuda::CudaError::kErrorInvalidValue);
    // Span runs past the end of the range.
    EXPECT_EQ(rt.prefetchAsync(buf, 2 * kBigPageSize,
                               ProcessorId::gpu(0)),
              cuda::CudaError::kErrorInvalidValue);
    // Unknown stream.
    EXPECT_EQ(rt.prefetchAsync(buf, kBigPageSize,
                               ProcessorId::gpu(0), 99),
              cuda::CudaError::kErrorInvalidValue);

    EXPECT_EQ(rt.discardAsync(buf, kBigPageSize, DiscardMode::kEager),
              cuda::CudaError::kSuccess);
    EXPECT_EQ(rt.discardAsync(buf + kBigPageSize, kBigPageSize,
                              DiscardMode::kEager),
              cuda::CudaError::kErrorInvalidValue);
    rt.synchronize();
}

TEST(RuntimeErrors, KernelOomBecomesStickyLastError)
{
    cuda::Runtime rt(test::tinyConfig(/*chunks=*/4), test::testLink());
    rt.driver().reserveGpuMemory(0, 4 * kBigPageSize);
    mem::VirtAddr buf = rt.mallocManaged(kBigPageSize, "buf");

    cuda::KernelDesc k;
    k.name = "oom";
    k.compute = sim::microseconds(10);
    k.accesses = rw(buf, kBigPageSize);
    rt.launch(k);
    rt.synchronize();

    EXPECT_EQ(rt.lastError(),
              cuda::CudaError::kErrorMemoryAllocation);
    // getLastError reads and clears, like the CUDA call.
    EXPECT_EQ(rt.getLastError(),
              cuda::CudaError::kErrorMemoryAllocation);
    EXPECT_EQ(rt.lastError(), cuda::CudaError::kSuccess);
}

// ------------------------------------------------------------------
// dumpStatsJson: validity and the new counters
// ------------------------------------------------------------------

/** Minimal JSON syntax checker (objects/arrays/strings/numbers). */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        char c = s_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        return number();
    }

    bool
    object()
    {
        ++pos_;  // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_;  // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size()) {
            char c = s_[pos_];
            if (c == '\\') {
                pos_ += 2;  // accept any escape pair
                continue;
            }
            if (c == '"') {
                ++pos_;
                return true;
            }
            // Control characters must have been escaped.
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
            ++pos_;
        }
        return false;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                s_[pos_] == '\t' || s_[pos_] == '\r'))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

TEST(StatsJson, FaultCountersAppearAndJsonStaysValid)
{
    uvm::UvmConfig cfg = test::tinyConfig(/*chunks=*/4);
    cfg.faults.enabled = true;
    cfg.faults.seed = 11;
    cfg.faults.dma_fault_rate = 0.5;
    cfg.faults.dma_max_retries = 16;
    cfg.faults.chunk_retire_rate = 0.2;
    cfg.faults.oom_remote_fallback = true;
    UvmDriver drv(cfg, test::testLink());

    sim::SimTime t = 0;
    mem::VirtAddr a = drv.allocManaged(3 * kBigPageSize, "a");
    t = drv.hostAccess(a, 3 * kBigPageSize, AccessKind::kWrite, t);
    t = drv.prefetch(a, 3 * kBigPageSize, ProcessorId::gpu(0), t);
    t = drv.hostAccess(a, 3 * kBigPageSize, AccessKind::kRead, t);

    std::ostringstream os;
    drv.dumpStatsJson(os);
    std::string s = os.str();

    EXPECT_TRUE(JsonChecker(s).valid()) << s;
    EXPECT_NE(s.find("\"fault_injected\":"), std::string::npos);
    EXPECT_NE(s.find("\"transfer_retries\":"), std::string::npos);
    EXPECT_NE(s.find("\"pages_retired\":"), std::string::npos);
    EXPECT_NE(s.find("\"oom_fallbacks\":"), std::string::npos);
    EXPECT_NE(s.find("\"retired\":"), std::string::npos);

    // The JSON counter agrees with the injector's book even after a
    // mixed-fault run.
    auto n = s.find("\"fault_injected\":");
    std::uint64_t in_json =
        std::stoull(s.substr(n + std::string("\"fault_injected\":")
                                     .size()));
    EXPECT_EQ(in_json, drv.faultInjector().totalInjected());
}

TEST(StatsJson, CleanRunOmitsNothingAndStaysValid)
{
    // Every declared row is dumped, so a clean run reports the
    // recovery counters as 0; its JSON must stay valid.
    UvmDriver drv(test::tinyConfig(), test::testLink());
    sim::SimTime t = 0;
    mem::VirtAddr a = drv.allocManaged(kBigPageSize, "a");
    t = drv.hostAccess(a, kBigPageSize, AccessKind::kWrite, t);
    t = drv.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t);
    std::ostringstream os;
    drv.dumpStatsJson(os);
    EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
    EXPECT_NE(os.str().find("\"fault_injected\":0"), std::string::npos);
}

}  // namespace
}  // namespace uvmd::uvm
