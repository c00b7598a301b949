/**
 * @file
 * The steady-state fast-forward of workloads::runPeriods against the
 * full simulation, and the state digest it rests on.
 *
 * FastForwardDifferential runs one network's Figure 6 cells (its six
 * batches under the four Figure 6 systems) with the fast-forward on
 * and off and compares every TrainResult field exactly.
 * RadixFastForward does the same for small radix sorts, and
 * PeriodsTest for hand-made periods that the fast-forward must
 * decline (their host is not far enough behind the device, or a
 * host touch is ordered against queued work) or may skip, against
 * the same periods in a plain loop.  The whole DL and radix grids are
 * in fast_forward_grid_test (label `slow`, release tree).
 *
 * StateDigestTest checks that the digest tells apart states whose
 * futures differ (LRU order, a copy engine's busy-until offset) and
 * not states that differ only in labels (time shift, rotated FIFO
 * allocation ordinals).
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <optional>

#include "cuda/api_cost.hpp"
#include "fast_forward.hpp"
#include "uvm/driver.hpp"

namespace uvmd::test {
namespace {

using uvm::ProcessorId;
using uvm::UvmConfig;
using uvm::UvmDriver;

TEST(FastForwardDifferential, OneNetworkFigure6CellsMatchExactly)
{
    expectFastForwardExact(fig6Grid({"VGG-16"}),
                           interconnect::LinkSpec::pcie4());
}

TEST(FastForwardDifferential, ManualSwapAndBackedRunsSimulateEveryBatch)
{
    workloads::dl::TrainParams p;
    p.net = workloads::dl::NetSpec::vgg16();
    p.batch_size = 40;
    workloads::dl::TrainResult manual = workloads::dl::runTraining(
        workloads::System::kManualSwap, p, interconnect::LinkSpec::pcie4());
    EXPECT_EQ(manual.periods_simulated, 10);

    UvmConfig backed = UvmConfig::rtx3080ti();
    backed.backed = true;
    p.warmup_batches = 1;
    p.measured_batches = 2;
    workloads::dl::TrainResult r = workloads::dl::runTraining(
        workloads::System::kUvmDiscard, p, interconnect::LinkSpec::pcie4(),
        backed);
    EXPECT_EQ(r.periods_simulated, 3);
}

// ------------------------------------------------------------------
// Radix sort
// ------------------------------------------------------------------

/** workloads_test's small radix sort: 256 MiB, 4 passes, 1 GiB GPU. */
RadixCell
smallRadix(workloads::System sys, double ratio, bool prefetch)
{
    RadixCell c{sys, {}, interconnect::LinkSpec::pcie4()};
    c.params.data_bytes = 256 * sim::kMiB;
    c.params.passes = 4;
    c.params.ovsp_ratio = ratio;
    c.params.use_prefetch = prefetch;
    c.cfg.gpu_memory = 1 * sim::kGiB;
    return c;
}

TEST(RadixFastForward, SmallRunsMatchTheFullSimulation)
{
    std::vector<RadixCell> cells;
    for (bool prefetch : {true, false}) {
        for (double ratio : {0.0, 2.0}) {
            for (workloads::System sys :
                 {workloads::System::kUvmOpt, workloads::System::kUvmDiscard,
                  workloads::System::kUvmDiscardLazy})
                cells.push_back(smallRadix(sys, ratio, prefetch));
        }
    }
    // Pass 1 ends in the state pass 0 ended in.
    for (int simulated : expectRadixFastForwardExact(cells))
        EXPECT_EQ(simulated, 2);
}

TEST(RadixFastForward, FaultInjectedRunSimulatesEveryPass)
{
    RadixCell c = smallRadix(workloads::System::kUvmDiscard, 2.0, true);
    c.cfg.faults.enabled = true;
    c.cfg.faults.seed = 42;
    c.cfg.faults.dma_fault_rate = 1e-3;
    c.cfg.faults.dma_max_retries = 16;
    EXPECT_EQ(expectRadixFastForwardExact({c}),
              std::vector<int>{c.params.passes});
}

// ------------------------------------------------------------------
// The digest
// ------------------------------------------------------------------

constexpr sim::Bytes kBlock = mem::kBigPageSize;

UvmConfig
smallGpu(std::uint64_t chunks)
{
    UvmConfig cfg;
    cfg.gpu_memory = chunks * kBlock;
    return cfg;
}

std::uint64_t
digestAt(const UvmDriver &drv, sim::SimTime now)
{
    sim::Digest d(now);
    EXPECT_TRUE(drv.hashState(d));
    return d.value();
}

bool
onGpu(UvmDriver &drv, mem::VirtAddr addr)
{
    return drv.vaSpace().blockOf(addr)->resident_gpu.any();
}

// ------------------------------------------------------------------
// runPeriods on hand-made periods
// ------------------------------------------------------------------

using Period = std::function<void(cuda::Runtime &, mem::VirtAddr)>;

/**
 * @p count periods over one 4-block buffer, then a host read of it:
 * through runPeriods, or with @p plain in a loop that drains nothing
 * before the final synchronize().
 */
workloads::RunResult
periodic(int count, bool plain, const Period &period)
{
    cuda::Runtime rt(smallGpu(8), interconnect::LinkSpec::pcie4());
    trace::Auditor auditor;
    rt.driver().setObserver(&auditor);
    mem::VirtAddr a = rt.mallocManaged(4 * kBlock, "a");
    workloads::RunResult r;
    if (plain) {
        rt.synchronize();
        const sim::SimTime t0 = rt.now();
        for (int j = 0; j < count; ++j)
            period(rt, a);
        rt.synchronize();
        r.elapsed = rt.now() - t0;
    }
    const workloads::Periods periods =
        plain ? workloads::Periods{}
              : workloads::runPeriods(rt, auditor, count, 0, true,
                                      [&](int) { period(rt, a); });
    rt.hostTouch(a, 4 * kBlock, uvm::AccessKind::kRead);
    rt.synchronize();
    workloads::harvest(r, rt, auditor, periods);
    rt.driver().setObserver(nullptr);
    return r;
}

/** Run @p period both ways; the results must match.  Returns the
 *  periods runPeriods simulated. */
int
expectPeriodsExact(int count, const Period &period)
{
    workloads::RunResult plain = periodic(count, true, period);
    workloads::RunResult run = periodic(count, false, period);
    expectSameRun(run, plain, "runPeriods against a plain loop");
    return run.periods_simulated;
}

cuda::KernelDesc
kernel(sim::SimDuration compute, std::vector<uvm::Access> accesses = {})
{
    cuda::KernelDesc k;
    k.compute = compute;
    k.accesses = std::move(accesses);
    return k;
}

const sim::SimDuration kLaunch = cuda::apiCost(cuda::ApiOp::kLaunch, 0);

TEST(PeriodsTest, DeviceBoundPeriodsAreSkipped)
{
    // Each period adds 9 launches' worth to the host's lead: from
    // boundary 1 on, the lead covers the period's issue cost.
    EXPECT_EQ(expectPeriodsExact(10, [](cuda::Runtime &rt, mem::VirtAddr a) {
                  rt.launch(kernel(10 * kLaunch,
                                   {{a, kBlock, uvm::AccessKind::kRead}}));
              }),
              2);
}

TEST(PeriodsTest, LeadShorterThanTheIssueCostDeclines)
{
    // Three zero-compute kernels and one of a launch's length: the
    // host leaves every boundary one launch behind the device, short
    // of the four launches a period issues (condition iii).
    EXPECT_EQ(expectPeriodsExact(10, [](cuda::Runtime &rt, mem::VirtAddr) {
                  for (int i = 0; i < 3; ++i)
                      rt.launch(kernel(0));
                  rt.launch(kernel(kLaunch));
              }),
              10);
}

TEST(PeriodsTest, HostTouchBehindTheDeviceDeclines)
{
    // The host rewrites the buffer while last period's kernel, which
    // reads and writes it on the GPU, is still queued; a drain there
    // would run that kernel first and migrate the buffer once more
    // per period (condition iv).
    EXPECT_EQ(expectPeriodsExact(6, [](cuda::Runtime &rt, mem::VirtAddr a) {
                  rt.hostTouch(a, 4 * kBlock, uvm::AccessKind::kWrite);
                  rt.launch(kernel(sim::milliseconds(1),
                                   {{a, 4 * kBlock,
                                     uvm::AccessKind::kReadWrite}}));
              }),
              6);
}

TEST(StateDigestTest, LruQueueOrderChangesTheDigest)
{
    // A full two-chunk GPU in two states that differ only in which of
    // A and B was touched last: the next eviction picks different
    // victims.
    auto run = [](bool a_first, bool *a_survives) {
        UvmDriver drv(smallGpu(2), interconnect::LinkSpec::pcie4());
        mem::VirtAddr a = drv.allocManaged(kBlock, "a");
        mem::VirtAddr b = drv.allocManaged(kBlock, "b");
        mem::VirtAddr c = drv.allocManaged(kBlock, "c");
        sim::SimTime t = 0;
        for (mem::VirtAddr x : a_first ? std::array{a, b} : std::array{b, a})
            t = drv.prefetch(x, kBlock, ProcessorId::gpu(0), t);
        std::uint64_t digest = digestAt(drv, t);
        drv.prefetch(c, kBlock, ProcessorId::gpu(0), t);
        *a_survives = onGpu(drv, a);
        return digest;
    };
    bool a_survives_1 = false;
    bool a_survives_2 = false;
    std::uint64_t d1 = run(true, &a_survives_1);
    std::uint64_t d2 = run(false, &a_survives_2);
    ASSERT_NE(a_survives_1, a_survives_2) << "the futures must diverge";
    EXPECT_NE(d1, d2);
}

TEST(StateDigestTest, CopyEngineBusyUntilOffsetChangesTheDigest)
{
    // The same H2D fill issued at 0 and at 1 ms: only the engine's
    // busy-until time differs, and only while the engine is busy.
    auto fill = [](sim::SimTime start) {
        auto drv = std::make_unique<UvmDriver>(
            smallGpu(4), interconnect::LinkSpec::pcie4());
        mem::VirtAddr a = drv->allocManaged(kBlock, "a");
        drv->hostAccess(a, kBlock, uvm::AccessKind::kWrite, 0);
        drv->prefetch(a, kBlock, ProcessorId::gpu(0), start);
        return drv;
    };
    auto early = fill(0);
    auto late = fill(sim::milliseconds(1));
    EXPECT_NE(digestAt(*early, 0), digestAt(*late, 0));
    EXPECT_EQ(digestAt(*early, sim::seconds(1)),
              digestAt(*late, sim::seconds(1)));
}

TEST(StateDigestTest, RotatedFifoAllocationOrdinalsDigestEqual)
{
    // A and B take turns on a one-chunk GPU under FIFO eviction.  Two
    // and three rounds end in the same state, with B's chunk under a
    // different allocation ordinal (3 and 5).
    auto rounds = [](int n) {
        UvmConfig cfg = smallGpu(1);
        cfg.eviction_policy = uvm::EvictionPolicy::kFifo;
        auto drv = std::make_unique<UvmDriver>(
            cfg, interconnect::LinkSpec::pcie4());
        mem::VirtAddr a = drv->allocManaged(kBlock, "a");
        mem::VirtAddr b = drv->allocManaged(kBlock, "b");
        sim::SimTime t = 0;
        for (int i = 0; i < n; ++i) {
            t = drv->prefetch(a, kBlock, ProcessorId::gpu(0), t);
            t = drv->prefetch(b, kBlock, ProcessorId::gpu(0), t);
        }
        EXPECT_TRUE(onGpu(*drv, b));
        EXPECT_EQ(drv->vaSpace().blockOf(b)->alloc_ordinal,
                  static_cast<std::uint64_t>(2 * n - 1));
        return drv;
    };
    auto two = rounds(2);
    auto three = rounds(3);
    EXPECT_EQ(digestAt(*two, sim::seconds(1)),
              digestAt(*three, sim::seconds(1)));
}

TEST(StateDigestTest, RuntimeDigestIgnoresATimeShift)
{
    auto run = [](sim::SimDuration delay) {
        cuda::Runtime rt(smallGpu(4), interconnect::LinkSpec::pcie4());
        rt.hostCompute(delay);
        mem::VirtAddr a = rt.mallocManaged(2 * kBlock, "a");
        rt.prefetchAsync(a, 2 * kBlock, ProcessorId::gpu(0));
        cuda::KernelDesc k;
        k.accesses = {{a, 2 * kBlock, uvm::AccessKind::kReadWrite}};
        k.compute = sim::microseconds(50);
        rt.launch(k);
        EXPECT_FALSE(rt.stateDigest()) << "queued work takes no digest";
        rt.synchronize();
        return rt.stateDigest();
    };
    std::optional<std::uint64_t> d1 = run(0);
    std::optional<std::uint64_t> d2 = run(sim::milliseconds(3));
    ASSERT_TRUE(d1 && d2);
    EXPECT_EQ(*d1, *d2);
}

TEST(StateDigestTest, UncoveredStateTakesNoDigest)
{
    UvmConfig backed = smallGpu(4);
    backed.backed = true;
    EXPECT_FALSE(cuda::Runtime(backed, interconnect::LinkSpec::pcie4())
                     .stateDigest());
    UvmConfig faults = smallGpu(4);
    faults.faults.enabled = true;
    EXPECT_FALSE(cuda::Runtime(faults, interconnect::LinkSpec::pcie4())
                     .stateDigest());
    UvmConfig random = smallGpu(4);
    random.eviction_policy = uvm::EvictionPolicy::kRandom;
    EXPECT_FALSE(cuda::Runtime(random, interconnect::LinkSpec::pcie4())
                     .stateDigest());

    // The Auditor hashes its state; an observer that does not (the
    // fan-out, here) blocks the digest.
    cuda::Runtime rt(smallGpu(4), interconnect::LinkSpec::pcie4());
    EXPECT_TRUE(rt.stateDigest());
    trace::Auditor auditor;
    rt.driver().setObserver(&auditor);
    EXPECT_TRUE(rt.stateDigest());
    uvm::ObserverMux mux;
    mux.add(&auditor);
    rt.driver().setObserver(&mux);
    EXPECT_FALSE(rt.stateDigest());
    rt.driver().setObserver(nullptr);
}

TEST(StateDigestTest, AuditorOpenTransfersChangeTheDigest)
{
    // The same driver state, but in one run the GPU read the block
    // after its H2D copy, which closes the copy as required; in the
    // other the copy is still open.
    auto run = [](bool read, bool audit) {
        cuda::Runtime rt(smallGpu(4), interconnect::LinkSpec::pcie4());
        trace::Auditor auditor;
        if (audit)
            rt.driver().setObserver(&auditor);
        mem::VirtAddr a = rt.mallocManaged(kBlock, "a");
        rt.hostTouch(a, kBlock, uvm::AccessKind::kWrite);
        rt.prefetchAsync(a, kBlock, ProcessorId::gpu(0));
        if (read) {
            cuda::KernelDesc k;
            k.accesses = {{a, kBlock, uvm::AccessKind::kRead}};
            rt.launch(k);
        }
        rt.synchronize();
        EXPECT_EQ(auditor.openBytes(), audit && !read ? kBlock : 0);
        std::optional<std::uint64_t> d = rt.stateDigest();
        rt.driver().setObserver(nullptr);
        return d.value();
    };
    EXPECT_EQ(run(true, false), run(false, false));
    EXPECT_NE(run(true, true), run(false, true));
}

}  // namespace
}  // namespace uvmd::test
