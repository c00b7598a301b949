/**
 * @file
 * Unit and regression tests for the TransferEngine: descriptor
 * decomposition of page masks, cross-block coalescing inside batch
 * scopes, skip accounting, and the default-configuration guarantee
 * that the engine reproduces the pre-refactor serial transfer
 * timings bit for bit.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cuda/runtime.hpp"
#include "test_util.hpp"
#include "uvm/transfer_engine.hpp"

namespace uvmd::uvm {
namespace {

using interconnect::Direction;

constexpr sim::Bytes kChunk = 2 * sim::kMiB;

PageMask
fullMask()
{
    PageMask m;
    m.set();
    return m;
}

/** A standalone engine over one PCIe-4 link plus a peer fabric. */
struct EngineFixture {
    UvmConfig cfg;
    UvmStats counters;
    interconnect::Link link{interconnect::LinkSpec::pcie4()};
    interconnect::Link peer{interconnect::LinkSpec::nvlink()};
    TransferEngine eng{cfg, counters};
    VaBlock b0, b1, b2;

    explicit EngineFixture(bool coalesce)
    {
        cfg.coalesce_transfers = coalesce;
        eng.addGpuLink(&link);
        eng.setPeerLink(&peer);
        b0.base = 0;
        b1.base = mem::kBigPageSize;
        b2.base = 4 * mem::kBigPageSize;  // not adjacent to b1
    }

    std::uint64_t
    count(const std::string &name)
    {
        return counters.group().get(name);
    }
};

TEST(TransferEngine, FullBlockMatchesLinkCostFormula)
{
    EngineFixture f(/*coalesce=*/false);
    sim::SimTime done = f.eng.submit(
        {&f.b0, fullMask(), Direction::kHostToDevice,
         TransferCause::kPrefetch},
        0);
    // One run, one descriptor: the old transferMask() formula.
    EXPECT_EQ(done, f.link.transferCost(kChunk));
    EXPECT_EQ(f.count("dma_descriptors"), 1u);
    EXPECT_EQ(f.count("bytes_h2d.prefetch"), kChunk);
}

TEST(TransferEngine, FragmentedMaskPaysSetupPerRun)
{
    EngineFixture f(/*coalesce=*/false);
    PageMask m;
    m.set(0);
    m.set(10);
    m.set(11);
    m.set(500);
    sim::SimTime done = f.eng.submit(
        {&f.b0, m, Direction::kDeviceToHost, TransferCause::kEviction},
        0);
    sim::Bytes bytes = 4 * mem::kSmallPageSize;
    EXPECT_EQ(done,
              3 * f.link.spec().setup +
                  sim::transferTime(bytes, f.link.spec().peak_gbps));
    EXPECT_EQ(f.count("dma_descriptors"), 3u);
    EXPECT_EQ(f.count("bytes_d2h.eviction"), bytes);
}

TEST(TransferEngine, EmptyMaskIsFree)
{
    EngineFixture f(/*coalesce=*/false);
    EXPECT_EQ(f.eng.submit({&f.b0, PageMask{},
                            Direction::kHostToDevice,
                            TransferCause::kPrefetch},
                           42),
              42);
    EXPECT_EQ(f.count("dma_descriptors"), 0u);
}

TEST(TransferEngine, AdjacentBlocksCoalesceInsideBatch)
{
    EngineFixture f(/*coalesce=*/true);
    TransferEngine::BatchScope batch(f.eng);
    sim::SimTime t = f.eng.submit(
        {&f.b0, fullMask(), Direction::kHostToDevice,
         TransferCause::kPrefetch},
        0);
    sim::SimTime done = f.eng.submit(
        {&f.b1, fullMask(), Direction::kHostToDevice,
         TransferCause::kPrefetch},
        t);
    // The second block's single run merges with the first block's
    // descriptor: no extra setup, bandwidth term only.
    EXPECT_EQ(done,
              t + sim::transferTime(kChunk, f.link.spec().peak_gbps));
    EXPECT_EQ(f.count("dma_descriptors"), 1u);
    EXPECT_EQ(f.count("dma_descriptors_coalesced"), 1u);
    // Traffic accounting is unchanged by coalescing.
    EXPECT_EQ(f.count("bytes_h2d.prefetch"), 2 * kChunk);
}

TEST(TransferEngine, NonContiguousBlocksDoNotCoalesce)
{
    EngineFixture f(/*coalesce=*/true);
    TransferEngine::BatchScope batch(f.eng);
    sim::SimTime t = f.eng.submit(
        {&f.b0, fullMask(), Direction::kHostToDevice,
         TransferCause::kPrefetch},
        0);
    f.eng.submit({&f.b2, fullMask(), Direction::kHostToDevice,
                  TransferCause::kPrefetch},
                 t);
    EXPECT_EQ(f.count("dma_descriptors"), 2u);
    EXPECT_EQ(f.count("dma_descriptors_coalesced"), 0u);
}

TEST(TransferEngine, BatchBoundaryBreaksTheTail)
{
    EngineFixture f(/*coalesce=*/true);
    sim::SimTime t = 0;
    {
        TransferEngine::BatchScope batch(f.eng);
        t = f.eng.submit({&f.b0, fullMask(),
                          Direction::kHostToDevice,
                          TransferCause::kPrefetch},
                         t);
    }
    {
        TransferEngine::BatchScope batch(f.eng);
        f.eng.submit({&f.b1, fullMask(), Direction::kHostToDevice,
                      TransferCause::kPrefetch},
                     t);
    }
    EXPECT_EQ(f.count("dma_descriptors"), 2u);
    EXPECT_EQ(f.count("dma_descriptors_coalesced"), 0u);
}

TEST(TransferEngine, KnobOffNeverCoalesces)
{
    EngineFixture f(/*coalesce=*/false);
    TransferEngine::BatchScope batch(f.eng);
    sim::SimTime t = f.eng.submit(
        {&f.b0, fullMask(), Direction::kHostToDevice,
         TransferCause::kPrefetch},
        0);
    f.eng.submit({&f.b1, fullMask(), Direction::kHostToDevice,
                  TransferCause::kPrefetch},
                 t);
    EXPECT_EQ(f.count("dma_descriptors"), 2u);
}

TEST(TransferEngine, DirectionsKeepSeparateTails)
{
    EngineFixture f(/*coalesce=*/true);
    TransferEngine::BatchScope batch(f.eng);
    sim::SimTime t = f.eng.submit(
        {&f.b0, fullMask(), Direction::kHostToDevice,
         TransferCause::kPrefetch},
        0);
    // An opposite-direction transfer in between does not break the
    // H2D tail (separate engines, separate tails).
    t = f.eng.submit({&f.b2, fullMask(), Direction::kDeviceToHost,
                      TransferCause::kEviction},
                     t);
    f.eng.submit({&f.b1, fullMask(), Direction::kHostToDevice,
                  TransferCause::kPrefetch},
                 t);
    EXPECT_EQ(f.count("dma_descriptors_coalesced"), 1u);
}

TEST(TransferEngine, RawTransferBreaksTheTail)
{
    EngineFixture f(/*coalesce=*/true);
    TransferEngine::BatchScope batch(f.eng);
    sim::SimTime t = f.eng.submit(
        {&f.b0, fullMask(), Direction::kHostToDevice,
         TransferCause::kPrefetch},
        0);
    // A cudaMemcpy-style descriptor lands on the same engines.
    t = f.eng.rawTransfer(0, 64 * sim::kKiB, Direction::kHostToDevice,
                          UvmStat::bytes_h2d_raw, t);
    f.eng.submit({&f.b1, fullMask(), Direction::kHostToDevice,
                  TransferCause::kPrefetch},
                 t);
    EXPECT_EQ(f.count("dma_descriptors_coalesced"), 0u);
}

TEST(TransferEngine, SkipAccountingPerDirectionAndPeer)
{
    EngineFixture f(/*coalesce=*/false);
    PageMask m;
    m.set(0);
    m.set(1);
    f.eng.skipped(f.b0, m, Direction::kDeviceToHost,
                  TransferCause::kEviction);
    f.eng.skipped(f.b0, m, Direction::kHostToDevice,
                  TransferCause::kPrefetch);
    f.eng.skipped(f.b0, m, Direction::kDeviceToHost,
                  TransferCause::kGpuFault, /*peer=*/true);
    sim::Bytes bytes = 2 * mem::kSmallPageSize;
    EXPECT_EQ(f.count("saved_d2h_bytes"), bytes);
    EXPECT_EQ(f.count("saved_h2d_bytes"), bytes);
    EXPECT_EQ(f.count("saved_d2d_bytes"), bytes);
    // Skips never touch the engines.
    EXPECT_EQ(f.count("dma_descriptors"), 0u);
    for (Direction dir :
         {Direction::kHostToDevice, Direction::kDeviceToHost}) {
        EXPECT_EQ(f.link.engineAt(dir, 0).busyTime(), 0);
        EXPECT_EQ(f.peer.engineAt(dir, 0).busyTime(), 0);
    }
}

TEST(TransferEngine, PeerRequestsRideThePeerLink)
{
    EngineFixture f(/*coalesce=*/false);
    f.eng.submit({&f.b0, fullMask(), Direction::kHostToDevice,
                  TransferCause::kGpuFault, /*gpu=*/0, /*peer=*/true},
                 0);
    EXPECT_EQ(f.count("bytes_d2d"), kChunk);
    EXPECT_EQ(f.count("bytes_h2d.gpu_fault"), 0u);
    EXPECT_EQ(f.count("dma_descriptors"), 1u);
    EXPECT_EQ(f.peer.engineAt(Direction::kHostToDevice, 0).busyTime(),
              f.peer.transferCost(kChunk));
    EXPECT_EQ(f.link.engineAt(Direction::kHostToDevice, 0).busyTime(), 0);
}

TEST(TransferEngine, RawTransfersCreditTheirCallersRowOnce)
{
    EngineFixture f(/*coalesce=*/false);
    f.eng.rawTransfer(0, 64 * sim::kKiB, Direction::kHostToDevice,
                      UvmStat::bytes_h2d_raw, 0);
    f.eng.rawTransfer(0, 32 * sim::kKiB, Direction::kDeviceToHost,
                      UvmStat::remote_write_bytes, 0);
    EXPECT_EQ(f.count("bytes_h2d.raw"), 64 * sim::kKiB);
    EXPECT_EQ(f.count("remote_write_bytes"), 32 * sim::kKiB);
    EXPECT_EQ(f.count("bytes_d2h.raw"), 0u);
    EXPECT_EQ(f.count("remote_read_bytes"), 0u);
    // One descriptor each, outside the block-transfer count.
    EXPECT_EQ(f.count("raw_transfers"), 2u);
    EXPECT_EQ(f.count("dma_descriptors"), 0u);
    EXPECT_EQ(f.link.engineAt(Direction::kHostToDevice, 0).busyTime(),
              f.link.transferCost(64 * sim::kKiB));
}

TEST(TransferEngine, LinkEventThresholdCountsBlockAndRawDescriptors)
{
    EngineFixture f(/*coalesce=*/false);
    sim::FaultPlan plan;
    plan.enabled = true;
    plan.link_events.push_back({3, 0, 0.5, -1, 0});
    sim::FaultInjector inj(plan);
    f.eng.setInjector(&inj);
    PageMask two_runs;
    two_runs.set(0);
    two_runs.set(9);
    sim::SimTime t = f.eng.submit(
        {&f.b0, two_runs, Direction::kHostToDevice,
         TransferCause::kPrefetch},
        0);
    EXPECT_EQ(f.link.bandwidthFactor(), 1.0);  // 2 descriptors issued
    f.eng.rawTransfer(0, 64 * sim::kKiB, Direction::kDeviceToHost,
                      UvmStat::bytes_d2h_raw, t);
    EXPECT_EQ(f.link.bandwidthFactor(), 0.5);  // the raw one is third
    EXPECT_EQ(f.count("fault_injected"), 1u);
}

// ------------------------------------------------------------------
// Regression: the default configuration (one copy engine per
// direction, coalescing off) must reproduce the pre-refactor serial
// transfer timings exactly.  Extra idle engines must not perturb a
// serial workload either.
// ------------------------------------------------------------------

sim::SimTime
runSerialWorkload(uvm::UvmConfig cfg)
{
    cuda::Runtime rt(cfg, test::testLink());
    sim::Bytes size = 8 * sim::kMiB;
    mem::VirtAddr buf = rt.mallocManaged(size, "reg.buf");
    rt.hostTouch(buf, size, AccessKind::kWrite);
    rt.prefetchAsync(buf, size, ProcessorId::gpu(0));
    rt.synchronize();
    rt.hostTouch(buf, size, AccessKind::kRead);
    rt.prefetchAsync(buf, size, ProcessorId::gpu(0));
    rt.synchronize();
    return rt.now();
}

TEST(TransferEngineRegression, ExtraEnginesDoNotPerturbSerialTiming)
{
    uvm::UvmConfig base = test::tinyConfig();
    uvm::UvmConfig wide = base;
    wide.copy_engines_per_dir = 4;
    EXPECT_EQ(runSerialWorkload(base), runSerialWorkload(wide));
}

TEST(TransferEngineRegression, DefaultPrefetchMatchesSerialFormula)
{
    uvm::UvmConfig cfg = test::tinyConfig();
    cuda::Runtime rt(cfg, test::testLink());
    sim::Bytes size = 4 * sim::kMiB;  // two full blocks
    mem::VirtAddr buf = rt.mallocManaged(size, "reg.buf");
    rt.hostTouch(buf, size, AccessKind::kWrite);
    sim::SimTime start = rt.now();
    rt.prefetchAsync(buf, size, ProcessorId::gpu(0));
    rt.synchronize();
    sim::SimTime elapsed = rt.now() - start;

    // The DMA portion is exactly one descriptor per block, serialized
    // — the pre-refactor per-block transferMask() cost.
    const interconnect::Link &l = rt.driver().link(0);
    sim::SimDuration dma = 2 * l.transferCost(kChunk);
    EXPECT_GE(elapsed, dma);
    EXPECT_EQ(l.engineAt(Direction::kHostToDevice, 0).busyTime(), dma);
    EXPECT_EQ(
        rt.driver().counters().get("dma_descriptors"),
        2u);
}

TEST(TransferEngineRegression, CoalescingPreservesTrafficCounters)
{
    uvm::UvmConfig base = test::tinyConfig();
    uvm::UvmConfig fused = base;
    fused.coalesce_transfers = true;

    auto run = [](uvm::UvmConfig cfg) {
        cuda::Runtime rt(cfg, test::testLink());
        sim::Bytes size = 8 * sim::kMiB;
        mem::VirtAddr buf = rt.mallocManaged(size, "co.buf");
        rt.hostTouch(buf, size, AccessKind::kWrite);
        rt.prefetchAsync(buf, size, ProcessorId::gpu(0));
        rt.synchronize();
        const sim::StatGroup c = rt.driver().counters();
        return std::tuple<std::uint64_t, std::uint64_t, sim::SimTime>(
            c.get("bytes_h2d.prefetch"), c.get("dma_descriptors"),
            rt.now());
    };

    auto [bytes_base, descs_base, t_base] = run(base);
    auto [bytes_fused, descs_fused, t_fused] = run(fused);
    EXPECT_EQ(bytes_base, bytes_fused);  // what moved is identical
    EXPECT_EQ(descs_base, 4u);
    EXPECT_EQ(descs_fused, 1u);  // how it moved is not
    EXPECT_LT(t_fused, t_base);  // three setup latencies saved
}

TEST(TransferEngineRegression, DisabledInjectorIsBitIdentical)
{
    // A fault plan whose knobs are all set but whose master switch is
    // off must not perturb timing, counters or stats output at all:
    // the injector may not even draw from its RNG.
    uvm::UvmConfig base = test::tinyConfig();
    uvm::UvmConfig armed = base;
    armed.faults.seed = 99;
    armed.faults.dma_fault_rate = 0.5;
    armed.faults.alloc_fail_rate = 0.5;
    armed.faults.chunk_retire_rate = 0.5;
    armed.faults.oom_remote_fallback = true;
    armed.faults.link_events.push_back({0, 0, 0.5, -1, 0});
    ASSERT_FALSE(armed.faults.enabled);

    auto run = [](uvm::UvmConfig cfg) {
        cuda::Runtime rt(cfg, test::testLink());
        sim::Bytes size = 8 * sim::kMiB;
        mem::VirtAddr buf = rt.mallocManaged(size, "inj.buf");
        rt.hostTouch(buf, size, AccessKind::kWrite);
        rt.prefetchAsync(buf, size, ProcessorId::gpu(0));
        rt.synchronize();
        rt.hostTouch(buf, size, AccessKind::kRead);
        std::ostringstream stats;
        rt.driver().dumpStatsJson(stats);
        return std::pair<sim::SimTime, std::string>(rt.now(),
                                                    stats.str());
    };

    auto [t_base, stats_base] = run(base);
    auto [t_armed, stats_armed] = run(armed);
    EXPECT_EQ(t_base, t_armed);
    EXPECT_EQ(stats_base, stats_armed);
}

}  // namespace
}  // namespace uvmd::uvm
