/**
 * @file
 * Tests for the CUDA-like runtime: stream ordering, cross-stream
 * events, compute/DMA overlap, host timeline accounting, the No-UVM
 * explicit path, and end-to-end data flow through kernels.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cuda/runtime.hpp"
#include "test_util.hpp"

namespace uvmd::cuda {
namespace {

using mem::kBigPageSize;
using uvm::AccessKind;
using uvm::DiscardMode;
using uvm::ProcessorId;

class RuntimeTest : public ::testing::Test
{
  protected:
    RuntimeTest() : rt_(test::tinyConfig(/*chunks=*/8), test::testLink())
    {}

    KernelDesc
    computeKernel(const std::string &name, sim::SimDuration compute)
    {
        KernelDesc k;
        k.name = name;
        k.compute = compute;
        return k;
    }

    Runtime rt_;
};

TEST_F(RuntimeTest, OpsOnOneStreamSerialize)
{
    rt_.launch(computeKernel("k1", sim::milliseconds(2)));
    rt_.launch(computeKernel("k2", sim::milliseconds(3)));
    rt_.synchronize();
    EXPECT_GE(rt_.now(), sim::milliseconds(5));
}

TEST_F(RuntimeTest, KernelsOnDifferentStreamsShareOneGpu)
{
    // Two kernels on different streams still serialize on the single
    // compute engine.
    StreamId s1 = rt_.createStream();
    rt_.launch(computeKernel("k1", sim::milliseconds(2)), 0);
    rt_.launch(computeKernel("k2", sim::milliseconds(2)), s1);
    rt_.synchronize();
    EXPECT_GE(rt_.now(), sim::milliseconds(4));
}

TEST_F(RuntimeTest, PrefetchOverlapsComputeOnOtherStream)
{
    mem::VirtAddr a = rt_.mallocManaged(8 * kBigPageSize, "a");
    rt_.hostTouch(a, 8 * kBigPageSize, AccessKind::kWrite);

    // Serial baseline: kernel then prefetch on one stream.
    sim::SimTime t0 = rt_.now();
    rt_.launch(computeKernel("k", sim::milliseconds(5)));
    rt_.prefetchAsync(a, 8 * kBigPageSize, ProcessorId::gpu(0), 0);
    rt_.synchronize();
    sim::SimTime serial = rt_.now() - t0;

    // 8 x 2 MiB over PCIe-4 is ~0.7 ms: overlapped on a second
    // stream, the same pair should take barely longer than the
    // kernel alone.
    Runtime rt2(test::tinyConfig(8), test::testLink());
    mem::VirtAddr b = rt2.mallocManaged(8 * kBigPageSize, "b");
    rt2.hostTouch(b, 8 * kBigPageSize, AccessKind::kWrite);
    StreamId s1 = rt2.createStream();
    sim::SimTime t1 = rt2.now();
    rt2.launch(computeKernel("k", sim::milliseconds(5)));
    rt2.prefetchAsync(b, 8 * kBigPageSize, ProcessorId::gpu(0), s1);
    rt2.synchronize();
    sim::SimTime overlapped = rt2.now() - t1;

    EXPECT_LT(overlapped, serial);
    EXPECT_LT(overlapped, sim::milliseconds(6));
}

TEST_F(RuntimeTest, EventOrdersAcrossStreams)
{
    StreamId s1 = rt_.createStream();
    mem::VirtAddr a = rt_.mallocManaged(kBigPageSize, "a");

    // Stream 0: long kernel writing a; stream 1 must not prefetch a
    // to the CPU until the kernel is done.
    KernelDesc k = computeKernel("writer", sim::milliseconds(4));
    k.accesses = {{a, kBigPageSize, AccessKind::kWrite}};
    rt_.launch(k, 0);
    EventHandle ev = rt_.recordEvent(0);
    rt_.streamWaitEvent(s1, ev);
    rt_.prefetchAsync(a, kBigPageSize, ProcessorId::cpu(), s1);
    rt_.synchronize();
    // The d2h transfer could only start after the 4 ms kernel.
    EXPECT_GE(rt_.now(), sim::milliseconds(4));
    EXPECT_EQ(rt_.driver().trafficD2h(), kBigPageSize);
}

TEST_F(RuntimeTest, WaitBeforeRecordBlocksUntilRecorded)
{
    StreamId s1 = rt_.createStream();
    // Enqueue the wait first; the record comes later on stream 0
    // behind a kernel.
    rt_.launch(computeKernel("k", sim::milliseconds(1)), 0);
    // recordEvent must be enqueued after launch but we issue the wait
    // on s1 before the event exists?  CUDA requires the event handle
    // first, so record then wait — the wait executes first in sim
    // time because s1 is otherwise idle.
    EventHandle ev = rt_.recordEvent(0);
    rt_.streamWaitEvent(s1, ev);
    rt_.launch(computeKernel("after", sim::milliseconds(1)), s1);
    rt_.synchronize();
    EXPECT_GE(rt_.now(), sim::milliseconds(2));
}

TEST_F(RuntimeTest, HostTimelineChargesApiCosts)
{
    sim::SimTime t0 = rt_.now();
    (void)rt_.mallocManaged(kBigPageSize, "a");
    EXPECT_EQ(rt_.now() - t0,
              apiCost(ApiOp::kCudaMallocManaged, kBigPageSize));
}

TEST_F(RuntimeTest, DeviceAllocationFailsWhenOverCapacity)
{
    // 8-chunk GPU == 16 MiB.
    (void)rt_.mallocDevice(12 * sim::kMiB, "big");
    EXPECT_THROW(rt_.mallocDevice(8 * sim::kMiB, "too_big"),
                 sim::FatalError);
}

TEST_F(RuntimeTest, DeviceFreeRestoresCapacity)
{
    mem::VirtAddr d = rt_.mallocDevice(12 * sim::kMiB, "big");
    rt_.freeDevice(d);
    (void)rt_.mallocDevice(12 * sim::kMiB, "again");
}

TEST_F(RuntimeTest, MemcpyMovesTrafficOnly)
{
    mem::VirtAddr d = rt_.mallocDevice(4 * sim::kMiB, "d");
    rt_.memcpyAsync(d, 4 * sim::kMiB, /*to_device=*/true);
    rt_.memcpyAsync(d, 1 * sim::kMiB, /*to_device=*/false);
    rt_.synchronize();
    EXPECT_EQ(rt_.driver().trafficH2d(), 4 * sim::kMiB);
    EXPECT_EQ(rt_.driver().trafficD2h(), 1 * sim::kMiB);
}

TEST_F(RuntimeTest, KernelBodyRunsAfterMigration)
{
    mem::VirtAddr a = rt_.mallocManaged(kBigPageSize, "a");
    rt_.hostTouch(a, kBigPageSize, AccessKind::kWrite);
    rt_.hostWriteValue<std::uint32_t>(a, 20);

    KernelDesc k;
    k.name = "double";
    k.compute = sim::microseconds(10);
    k.accesses = {{a, kBigPageSize, AccessKind::kReadWrite}};
    k.body = [a](uvm::UvmDriver &drv) {
        auto v = drv.peekValue<std::uint32_t>(a);
        drv.pokeValue<std::uint32_t>(a, v * 2);
    };
    rt_.launch(k);
    rt_.synchronize();
    rt_.hostTouch(a, kBigPageSize, AccessKind::kRead);
    EXPECT_EQ(rt_.hostReadValue<std::uint32_t>(a), 40u);
    // Round trip: one 2 MiB up (fault), one back (host read).
    EXPECT_EQ(rt_.driver().trafficH2d(), kBigPageSize);
    EXPECT_EQ(rt_.driver().trafficD2h(), kBigPageSize);
}

TEST_F(RuntimeTest, DiscardAsyncOrdersWithKernels)
{
    mem::VirtAddr a = rt_.mallocManaged(kBigPageSize, "a");
    KernelDesc k;
    k.name = "producer";
    k.compute = sim::milliseconds(1);
    k.accesses = {{a, kBigPageSize, AccessKind::kWrite}};
    rt_.launch(k);
    rt_.discardAsync(a, kBigPageSize, DiscardMode::kEager);
    rt_.synchronize();
    uvm::VaBlock *b = rt_.driver().vaSpace().blockOf(a);
    EXPECT_EQ(b->link.on, mem::QueueKind::kDiscarded);
    EXPECT_EQ(rt_.driver().counters().get("discard_calls_eager"), 1u);
}

TEST_F(RuntimeTest, StreamSynchronizeWaitsForThatStream)
{
    StreamId s1 = rt_.createStream();
    rt_.launch(computeKernel("slow", sim::milliseconds(10)), 0);
    rt_.launch(computeKernel("fast", sim::microseconds(1)), s1);
    rt_.streamSynchronize(s1);
    // Syncing s1 does not require the 10 ms kernel on s0... but both
    // kernels share the compute engine, so "fast" may queue behind
    // "slow".  The only guarantee: host time >= fast's completion.
    rt_.synchronize();
    EXPECT_GE(rt_.now(), sim::milliseconds(10));
}

TEST_F(RuntimeTest, SimultaneouslyDueStreamsDispatchInScheduleOrder)
{
    // s2 parks on the event before s1 does, so the record wakes s2
    // first.  Both heads then fall due at the record time; the earlier
    // scheduled one (s2) must run first, whatever the stream ids.
    StreamId s1 = rt_.createStream();
    StreamId s2 = rt_.createStream();
    std::vector<int> order;
    auto tagged = [&order](int tag) {
        KernelDesc k;
        k.name = "tagged";
        k.compute = sim::microseconds(1);
        k.body = [&order, tag](uvm::UvmDriver &) { order.push_back(tag); };
        return k;
    };
    rt_.launch(computeKernel("gate", sim::milliseconds(1)), 0);
    EventHandle ev = rt_.recordEvent(0);
    rt_.streamWaitEvent(s2, ev);
    rt_.streamWaitEvent(s1, ev);
    rt_.launch(tagged(2), s2);
    rt_.launch(tagged(1), s1);
    rt_.synchronize();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST_F(RuntimeTest, HostTouchRunsOnlyDispatchesDueByHostTime)
{
    mem::VirtAddr a = rt_.mallocManaged(kBigPageSize, "a");
    bool second_ran = false;
    rt_.launch(computeKernel("long", sim::milliseconds(10)));
    KernelDesc k = computeKernel("second", sim::microseconds(1));
    k.body = [&second_ran](uvm::UvmDriver &) { second_ran = true; };
    rt_.launch(k);

    rt_.hostTouch(a, kBigPageSize, AccessKind::kWrite);
    EXPECT_LT(rt_.now(), sim::milliseconds(10));
    EXPECT_FALSE(second_ran);
    EXPECT_EQ(rt_.eventQueue().executed(), 1u);

    rt_.synchronize();
    EXPECT_TRUE(second_ran);
    EXPECT_GE(rt_.now(), sim::milliseconds(10));
}

TEST(RuntimeDrain, RunsQueuedWorkWithoutMovingTheHost)
{
    uvm::UvmConfig cfg = test::tinyConfig();
    cfg.backed = false;  // backed state takes no digest
    Runtime rt(cfg, test::testLink());
    rt.mallocManaged(kBigPageSize, "a");
    EXPECT_EQ(rt.hostCalls(), 1u);

    // Issued at one and two launch costs, the second kernel waits
    // for the first.
    KernelDesc k;
    k.compute = sim::milliseconds(1);
    rt.launch(k);
    rt.launch(k);
    EXPECT_EQ(rt.hostCalls(), 1u) << "one stream: enqueues do not count";
    const sim::SimTime host = rt.now();
    EXPECT_FALSE(rt.stateDigest()) << "queued work takes no digest";
    rt.drain();
    EXPECT_EQ(rt.now(), host);
    EXPECT_EQ(rt.eventQueue().executed(), 2u);
    const sim::SimTime ready = rt.deviceReady();
    EXPECT_EQ(ready, host - apiCost(ApiOp::kLaunch, 0) +
                         sim::milliseconds(2));
    EXPECT_TRUE(rt.stateDigest()) << "the streams are empty";
    rt.synchronize();
    EXPECT_EQ(rt.now(), ready);
    EXPECT_EQ(rt.eventQueue().executed(), 2u);
}

TEST_F(RuntimeTest, ExecutedCountsEveryDispatchIncludingParkedWaits)
{
    // Dispatches: kernel, record, the wait (parks: not yet recorded),
    // the wait again (woken by the record), the kernel behind it.
    StreamId s1 = rt_.createStream();
    rt_.launch(computeKernel("k", sim::milliseconds(1)), 0);
    EventHandle ev = rt_.recordEvent(0);
    rt_.streamWaitEvent(s1, ev);
    rt_.launch(computeKernel("after", sim::microseconds(1)), s1);
    rt_.synchronize();
    EXPECT_EQ(rt_.eventQueue().executed(), 5u);
}

TEST_F(RuntimeTest, ZeroCopyKernelLaunchCostIsCharged)
{
    sim::SimTime t0 = rt_.now();
    rt_.launch(computeKernel("noop", 0));
    EXPECT_EQ(rt_.now() - t0, apiCost(ApiOp::kLaunch, 0));
    rt_.synchronize();
}

// Unknown ids are rejected with a FatalError before the call charges
// host time or queues anything, so the runtime stays usable.

TEST_F(RuntimeTest, LaunchOnUnknownGpuIsFatalWithoutSideEffects)
{
    sim::SimTime t0 = rt_.now();
    EXPECT_THROW(rt_.launch(computeKernel("k", 10), 0, /*gpu=*/1),
                 sim::FatalError);
    EXPECT_THROW(rt_.launch(computeKernel("k", 10), 0, /*gpu=*/-1),
                 sim::FatalError);
    EXPECT_THROW(rt_.launch(computeKernel("k", 10), /*stream=*/3),
                 sim::FatalError);
    EXPECT_EQ(rt_.now(), t0);
    rt_.synchronize();
    EXPECT_EQ(rt_.eventQueue().executed(), 0u);
}

TEST_F(RuntimeTest, MemcpyOnUnknownGpuIsFatalWithoutSideEffects)
{
    mem::VirtAddr d = rt_.mallocDevice(4 * sim::kMiB, "d");
    sim::SimTime t0 = rt_.now();
    EXPECT_THROW(rt_.memcpyAsync(d, sim::kMiB, /*to_device=*/true, 0,
                                 /*gpu=*/2),
                 sim::FatalError);
    EXPECT_THROW(rt_.memcpyAsync(d, sim::kMiB, /*to_device=*/true,
                                 /*stream=*/4),
                 sim::FatalError);
    EXPECT_EQ(rt_.now(), t0);
    rt_.synchronize();
    EXPECT_EQ(rt_.driver().trafficH2d(), 0u);
}

TEST_F(RuntimeTest, AllocPrefetchAndAdviseRejectUnknownGpu)
{
    mem::VirtAddr a = rt_.mallocManaged(kBigPageSize, "a");
    sim::SimTime t0 = rt_.now();
    EXPECT_THROW(rt_.mallocDevice(sim::kMiB, "d", /*gpu=*/1),
                 sim::FatalError);
    mem::VirtAddr out = 0;
    EXPECT_EQ(rt_.tryMallocDevice(sim::kMiB, "d", &out, /*gpu=*/-1),
              CudaError::kErrorInvalidValue);
    EXPECT_EQ(out, 0u);
    // The hint mask has room for 8 GPUs; this runtime has one.
    EXPECT_THROW(rt_.memAdvise(a, kBigPageSize,
                               uvm::MemAdvise::kSetAccessedBy, /*gpu=*/3),
                 sim::FatalError);
    EXPECT_EQ(rt_.driver().vaSpace().blockOf(a)->accessed_by, 0u);
    EXPECT_EQ(rt_.now(), t0);

    EXPECT_EQ(rt_.prefetchAsync(a, kBigPageSize, ProcessorId::gpu(1)),
              CudaError::kErrorInvalidValue);
    EXPECT_EQ(rt_.prefetchAsync(a, kBigPageSize, ProcessorId{}),
              CudaError::kErrorInvalidValue);
    rt_.synchronize();
    EXPECT_EQ(rt_.driver().trafficH2d(), 0u);
}

TEST_F(RuntimeTest, StreamSynchronizeOnUnknownStreamIsFatal)
{
    EXPECT_THROW(rt_.streamSynchronize(1), sim::FatalError);
    EXPECT_THROW(rt_.streamSynchronize(-1), sim::FatalError);
}

TEST_F(RuntimeTest, EventOpsOnUnknownStreamAreFatalWithoutSideEffects)
{
    sim::SimTime t0 = rt_.now();
    EXPECT_THROW(rt_.recordEvent(5), sim::FatalError);
    EXPECT_EQ(rt_.now(), t0);
    // The rejected record left no event behind: the next is the first.
    EventHandle ev = rt_.recordEvent(0);
    EXPECT_EQ(ev, 0);
    t0 = rt_.now();
    EXPECT_THROW(rt_.streamWaitEvent(5, ev), sim::FatalError);
    EXPECT_EQ(rt_.now(), t0);
    rt_.synchronize();
}

TEST(RuntimeMultiGpu, KernelsRunOnSeparateComputeEngines)
{
    uvm::UvmConfig cfg = test::tinyConfig(8);
    cfg.num_gpus = 2;
    Runtime rt(cfg, test::testLink());

    // Same-length kernels on different GPUs and streams overlap.
    StreamId s1 = rt.createStream();
    KernelDesc k;
    k.name = "k";
    k.compute = sim::milliseconds(4);
    rt.launch(k, 0, /*gpu=*/0);
    rt.launch(k, s1, /*gpu=*/1);
    rt.synchronize();
    EXPECT_LT(rt.now(), sim::milliseconds(7));
}

TEST(RuntimeMultiGpu, ManagedDataFlowsAcrossGpus)
{
    uvm::UvmConfig cfg = test::tinyConfig(8);
    cfg.num_gpus = 2;
    Runtime rt(cfg, test::testLink());
    mem::VirtAddr a = rt.mallocManaged(kBigPageSize, "a");
    rt.hostTouch(a, kBigPageSize, AccessKind::kWrite);
    rt.hostWriteValue<std::uint64_t>(a, 31);

    KernelDesc producer;
    producer.name = "producer";
    producer.accesses = {{a, kBigPageSize, AccessKind::kReadWrite}};
    producer.compute = sim::microseconds(10);
    producer.body = [a](uvm::UvmDriver &d) {
        d.pokeValue<std::uint64_t>(a, d.peekValue<std::uint64_t>(a) + 1);
    };
    rt.launch(producer, 0, /*gpu=*/0);

    KernelDesc consumer = producer;
    consumer.name = "consumer";
    rt.launch(consumer, 0, /*gpu=*/1);
    rt.synchronize();

    EXPECT_EQ(rt.hostReadValue<std::uint64_t>(a), 33u);
    // The block crossed the peer link once (gpu0 -> gpu1); the host
    // write/read account for the PCIe round trip.
    EXPECT_EQ(rt.driver().trafficD2d(), kBigPageSize);
}

TEST(ApiCost, MatchesTable2Anchors)
{
    // Paper Table 2 (microseconds).
    EXPECT_NEAR(sim::toMicroseconds(
                    apiCost(ApiOp::kCudaMalloc, 2 * sim::kMiB)),
                48, 1);
    EXPECT_NEAR(sim::toMicroseconds(
                    apiCost(ApiOp::kCudaMalloc, 8 * sim::kMiB)),
                184, 1);
    EXPECT_NEAR(sim::toMicroseconds(
                    apiCost(ApiOp::kCudaMalloc, 32 * sim::kMiB)),
                726, 1);
    EXPECT_NEAR(sim::toMicroseconds(
                    apiCost(ApiOp::kCudaMalloc, 128 * sim::kMiB)),
                939, 1);
    EXPECT_NEAR(sim::toMicroseconds(
                    apiCost(ApiOp::kCudaFree, 2 * sim::kMiB)),
                32, 1);
    EXPECT_NEAR(sim::toMicroseconds(
                    apiCost(ApiOp::kCudaFree, 128 * sim::kMiB)),
                1184, 1);
    // Interpolation is monotone within segments.
    EXPECT_GT(apiCost(ApiOp::kCudaMalloc, 16 * sim::kMiB),
              apiCost(ApiOp::kCudaMalloc, 8 * sim::kMiB));
    EXPECT_LT(apiCost(ApiOp::kCudaMalloc, 16 * sim::kMiB),
              apiCost(ApiOp::kCudaMalloc, 32 * sim::kMiB));
}

TEST(ApiCost, ExtrapolatesBeyondLastAnchor)
{
    EXPECT_GT(apiCost(ApiOp::kCudaMalloc, 256 * sim::kMiB),
              apiCost(ApiOp::kCudaMalloc, 128 * sim::kMiB));
}

}  // namespace
}  // namespace uvmd::cuda
