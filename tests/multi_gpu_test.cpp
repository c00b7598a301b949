/**
 * @file
 * Multi-GPU tests: peer migration over the NVLink-class fabric,
 * host-bounce fallback, independent per-GPU eviction, discard
 * semantics across device moves, and data integrity.
 */

#include <gtest/gtest.h>

#include "test_util.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {
namespace {

using mem::kBigPageSize;
using mem::QueueKind;

class MultiGpuTest : public ::testing::Test
{
  protected:
    MultiGpuTest() : drv_(config(), test::testLink()) {}

    static UvmConfig
    config()
    {
        UvmConfig cfg = test::tinyConfig(/*chunks=*/4);
        cfg.num_gpus = 2;
        return cfg;
    }

    UvmDriver drv_;
    sim::SimTime t_ = 0;
};

TEST_F(MultiGpuTest, PeerMigrationMovesOwnership)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    drv_.pokeValue<std::uint64_t>(a, 77);
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    sim::Bytes pcie_before = drv_.totalTrafficBytes();

    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(1), t_);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    EXPECT_EQ(b->owner_gpu, 1);
    EXPECT_EQ(b->resident_gpu.count(), 512u);
    // The move used the peer link, not PCIe.
    EXPECT_EQ(drv_.totalTrafficBytes(), pcie_before);
    EXPECT_EQ(drv_.trafficD2d(), kBigPageSize);
    EXPECT_EQ(drv_.allocator(0).allocatedChunks(), 0u);
    EXPECT_EQ(drv_.allocator(1).allocatedChunks(), 1u);
    // Data moved with the block.
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a), 77u);
    drv_.checkInvariants();
}

TEST_F(MultiGpuTest, HostBounceWithoutPeerLink)
{
    UvmConfig cfg = config();
    cfg.peer_enabled = false;
    UvmDriver drv(cfg, test::testLink());
    mem::VirtAddr a = drv.allocManaged(kBigPageSize, "a");
    sim::SimTime t = drv.prefetch(a, kBigPageSize, ProcessorId::gpu(0),
                                  0);
    t = drv.gpuAccess(
        0, {{a, kBigPageSize, AccessKind::kWrite}}, t);
    t = drv.prefetch(a, kBigPageSize, ProcessorId::gpu(1), t);
    // Bounced: one D2H on gpu0's link plus one H2D on gpu1's link.
    EXPECT_EQ(drv.trafficD2h(), kBigPageSize);
    EXPECT_EQ(drv.trafficH2d(), kBigPageSize);
    EXPECT_EQ(drv.trafficD2d(), 0u);
    using interconnect::Direction;
    EXPECT_GT(drv.link(0).engineAt(Direction::kDeviceToHost, 0).busyTime(),
              0);
    EXPECT_EQ(drv.link(1).engineAt(Direction::kDeviceToHost, 0).busyTime(),
              0);
    EXPECT_GT(drv.link(1).engineAt(Direction::kHostToDevice, 0).busyTime(),
              0);
    drv.checkInvariants();
}

TEST_F(MultiGpuTest, KernelFaultPullsFromPeer)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.gpuAccess(0, {{a, kBigPageSize, AccessKind::kWrite}},
                        t_);
    drv_.pokeValue<std::uint64_t>(a, 5);

    auto faults = drv_.counters().get("gpu_fault_batches");
    t_ = drv_.gpuAccess(1, {{a, kBigPageSize, AccessKind::kRead}},
                        t_);
    EXPECT_EQ(drv_.counters().get("gpu_fault_batches"), faults + 1);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    EXPECT_EQ(b->owner_gpu, 1);
    EXPECT_EQ(b->mapped_gpu.count(), 512u);
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a), 5u);
    drv_.checkInvariants();
}

TEST_F(MultiGpuTest, DiscardedPagesDoNotTravelPeer)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.gpuAccess(0, {{a, kBigPageSize, AccessKind::kWrite}},
                        t_);
    t_ = drv_.discard(a, kBigPageSize, DiscardMode::kEager, t_);

    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(1), t_);
    // No live data moved: the destination got zero-filled pages.
    EXPECT_EQ(drv_.trafficD2d(), 0u);
    EXPECT_EQ(drv_.counters().get("saved_d2d_bytes"), kBigPageSize);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    EXPECT_EQ(b->owner_gpu, 1);
    EXPECT_EQ(b->discarded.count(), 0u);  // re-armed by the prefetch
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a), 0u);
    drv_.checkInvariants();
}

TEST_F(MultiGpuTest, PerGpuEvictionIsIndependent)
{
    // Fill gpu0 completely; gpu1 allocations must not evict from it.
    mem::VirtAddr a = drv_.allocManaged(4 * kBigPageSize, "a");
    mem::VirtAddr b = drv_.allocManaged(4 * kBigPageSize, "b");
    t_ = drv_.prefetch(a, 4 * kBigPageSize, ProcessorId::gpu(0), t_);
    t_ = drv_.prefetch(b, 4 * kBigPageSize, ProcessorId::gpu(1), t_);
    EXPECT_EQ(drv_.counters().get("evictions_used"), 0u);
    EXPECT_EQ(drv_.allocator(0).allocatedChunks(), 4u);
    EXPECT_EQ(drv_.allocator(1).allocatedChunks(), 4u);

    // One more block on gpu1 evicts only there.
    mem::VirtAddr c = drv_.allocManaged(kBigPageSize, "c");
    t_ = drv_.prefetch(c, kBigPageSize, ProcessorId::gpu(1), t_);
    EXPECT_EQ(drv_.allocator(0).allocatedChunks(), 4u);
    VaBlock *ba = drv_.vaSpace().blockOf(a);
    EXPECT_TRUE(ba->resident_gpu.any());
    drv_.checkInvariants();
}

TEST_F(MultiGpuTest, PeerMoveEvictsOnDestinationWhenFull)
{
    mem::VirtAddr fill = drv_.allocManaged(4 * kBigPageSize, "fill");
    t_ = drv_.prefetch(fill, 4 * kBigPageSize, ProcessorId::gpu(1),
                       t_);
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.gpuAccess(0, {{a, kBigPageSize, AccessKind::kWrite}},
                        t_);
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(1), t_);
    EXPECT_EQ(drv_.counters().get("evictions_used"), 1u);
    EXPECT_EQ(drv_.vaSpace().blockOf(a)->owner_gpu, 1);
    drv_.checkInvariants();
}

TEST_F(MultiGpuTest, RoundTripThroughBothGpusPreservesData)
{
    mem::VirtAddr a = drv_.allocManaged(2 * kBigPageSize, "a");
    t_ = drv_.hostAccess(a, 2 * kBigPageSize, AccessKind::kWrite, t_);
    drv_.pokeValue<std::uint64_t>(a + kBigPageSize + 128, 0xfeed);
    t_ = drv_.prefetch(a, 2 * kBigPageSize, ProcessorId::gpu(0), t_);
    t_ = drv_.prefetch(a, 2 * kBigPageSize, ProcessorId::gpu(1), t_);
    t_ = drv_.prefetch(a, 2 * kBigPageSize, ProcessorId::gpu(0), t_);
    t_ = drv_.hostAccess(a, 2 * kBigPageSize, AccessKind::kRead, t_);
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a + kBigPageSize + 128),
              0xfeedu);
    drv_.checkInvariants();
}

TEST_F(MultiGpuTest, PeerIsFasterThanBounce)
{
    UvmConfig bounce_cfg = config();
    bounce_cfg.peer_enabled = false;
    UvmDriver bounce(bounce_cfg, test::testLink());

    auto move_time = [](UvmDriver &drv) {
        mem::VirtAddr a = drv.allocManaged(2 * kBigPageSize, "a");
        sim::SimTime t = drv.prefetch(a, 2 * kBigPageSize,
                                      ProcessorId::gpu(0), 0);
        t = drv.gpuAccess(
            0, {{a, 2 * kBigPageSize, AccessKind::kWrite}}, t);
        sim::SimTime start = t;
        return drv.prefetch(a, 2 * kBigPageSize, ProcessorId::gpu(1),
                            t) -
               start;
    };
    EXPECT_LT(move_time(drv_), move_time(bounce));
}

}  // namespace
}  // namespace uvmd::uvm
