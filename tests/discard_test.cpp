/**
 * @file
 * Tests for the discard directive — the paper's contribution.
 *
 * Covers both implementations (eager UvmDiscard, UvmDiscardLazy),
 * the Section 4.1 value semantics, the Section 5.3 skip rules in both
 * directions, the Section 5.4 granularity policy, the Section 5.5
 * discarded queue and eviction order, the Section 5.6 delayed
 * reclamation, and the Section 5.7 preparation tracking.
 */

#include <gtest/gtest.h>

#include "test_util.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {
namespace {

using mem::kBigPageSize;
using mem::kSmallPageSize;
using mem::QueueKind;

class DiscardFixture : public ::testing::Test
{
  protected:
    DiscardFixture()
        : drv_(test::tinyConfig(/*chunks=*/4), test::testLink())
    {
        sim::resetWarnCount();
        sim::setLogLevel(sim::LogLevel::kQuiet);
    }

    ~DiscardFixture() override
    {
        sim::setLogLevel(sim::LogLevel::kNormal);
    }

    /** Make a GPU-resident block holding a known value. */
    mem::VirtAddr
    gpuBlockWithValue(std::uint64_t value)
    {
        mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "buf");
        t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
        drv_.pokeValue<std::uint64_t>(a, value);
        t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
        return a;
    }

    std::vector<Access>
    access(mem::VirtAddr addr, sim::Bytes size, AccessKind kind)
    {
        return {{addr, size, kind}};
    }

    UvmDriver drv_;
    sim::SimTime t_ = 0;
};

class DiscardTest
    : public DiscardFixture,
      public ::testing::WithParamInterface<DiscardMode>
{
  protected:
    DiscardMode mode() const { return GetParam(); }
};

TEST_P(DiscardTest, DiscardMovesBlockToDiscardedQueue)
{
    mem::VirtAddr a = gpuBlockWithValue(7);
    t_ = drv_.discard(a, kBigPageSize, mode(), t_);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    EXPECT_EQ(b->link.on, QueueKind::kDiscarded);
    EXPECT_EQ(b->discarded.count(), 512u);
    // Delayed reclamation: the chunk and the pinned CPU pages remain.
    EXPECT_TRUE(b->has_gpu_chunk);
    EXPECT_EQ(b->cpu_pages_present.count(), 512u);
    drv_.checkInvariants();
}

TEST_P(DiscardTest, EagerUnmapsLazyKeepsMappings)
{
    mem::VirtAddr a = gpuBlockWithValue(7);
    t_ = drv_.discard(a, kBigPageSize, mode(), t_);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    if (mode() == DiscardMode::kEager) {
        EXPECT_EQ(b->mapped_gpu.count(), 0u);
    } else {
        EXPECT_EQ(b->mapped_gpu.count(), 512u);
        EXPECT_EQ(b->discarded_lazily.count(), 512u);
    }
}

TEST_P(DiscardTest, EvictionOfDiscardedBlockSkipsTransfer)
{
    mem::VirtAddr a = gpuBlockWithValue(7);
    sim::Bytes d2h_before = drv_.trafficD2h();
    t_ = drv_.discard(a, kBigPageSize, mode(), t_);

    // Fill the GPU to force eviction; the discarded chunk must be
    // reclaimed first and without any transfer.
    mem::VirtAddr spill = drv_.allocManaged(4 * kBigPageSize, "spill");
    t_ = drv_.prefetch(spill, 4 * kBigPageSize, ProcessorId::gpu(0),
                       t_);
    EXPECT_EQ(drv_.trafficD2h(), d2h_before);
    EXPECT_EQ(drv_.counters().get("evictions_discarded"), 1u);
    EXPECT_EQ(drv_.counters().get("saved_d2h_bytes"), kBigPageSize);

    VaBlock *b = drv_.vaSpace().blockOf(a);
    EXPECT_FALSE(b->has_gpu_chunk);
    // The stale pinned CPU copy survives: reads see old values.
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a), 7u);
    drv_.checkInvariants();
}

TEST_P(DiscardTest, ReclaimedDiscardedPageSkipsHostToDeviceToo)
{
    mem::VirtAddr a = gpuBlockWithValue(9);
    t_ = drv_.discard(a, kBigPageSize, mode(), t_);
    mem::VirtAddr spill = drv_.allocManaged(4 * kBigPageSize, "spill");
    t_ = drv_.prefetch(spill, 4 * kBigPageSize, ProcessorId::gpu(0),
                       t_);

    // Re-prefetch the discarded buffer to the GPU: the stale data
    // must NOT be transferred; a zero-filled page appears instead
    // (Section 5.3, second scenario).
    sim::Bytes h2d_before = drv_.trafficH2d();
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    EXPECT_EQ(drv_.trafficH2d(), h2d_before);
    EXPECT_GE(drv_.counters().get("saved_h2d_bytes"), kBigPageSize);

    VaBlock *b = drv_.vaSpace().blockOf(a);
    EXPECT_EQ(b->resident_gpu.count(), 512u);
    EXPECT_EQ(b->discarded.count(), 0u);  // re-armed by the prefetch
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a), 0u);  // zeros now
    drv_.checkInvariants();
}

TEST_P(DiscardTest, WriteAfterDiscardIsVisible)
{
    mem::VirtAddr a = gpuBlockWithValue(5);
    t_ = drv_.discard(a, kBigPageSize, mode(), t_);
    // Mandatory prefetch re-arms the region, then the GPU writes.
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    t_ = drv_.gpuAccess(0, access(a, kBigPageSize, AccessKind::kWrite),
                        t_);
    drv_.pokeValue<std::uint64_t>(a, 31337);
    // Evict and read from the host: the new value must survive.
    mem::VirtAddr spill = drv_.allocManaged(4 * kBigPageSize, "spill");
    t_ = drv_.prefetch(spill, 4 * kBigPageSize, ProcessorId::gpu(0),
                       t_);
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a), 31337u);
    drv_.checkInvariants();
}

TEST_P(DiscardTest, ReadAfterDiscardReturnsZerosOrOldValues)
{
    mem::VirtAddr a = gpuBlockWithValue(5);
    drv_.pokeValue<std::uint64_t>(a, 1234);  // GPU-side update
    t_ = drv_.discard(a, kBigPageSize, mode(), t_);
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kRead, t_);
    std::uint64_t v = drv_.peekValue<std::uint64_t>(a);
    // Section 4.1: zeros or some previously-written value (the stale
    // pinned copy holds 5; the GPU copy held 1234).
    EXPECT_TRUE(v == 0 || v == 5 || v == 1234) << v;
    drv_.checkInvariants();
}

TEST_P(DiscardTest, DiscardOfCpuResidentPagesSkipsLaterUpload)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    drv_.pokeValue<std::uint64_t>(a, 11);
    t_ = drv_.discard(a, kBigPageSize, mode(), t_);

    sim::Bytes h2d_before = drv_.trafficH2d();
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    EXPECT_EQ(drv_.trafficH2d(), h2d_before);
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a), 0u);
    drv_.checkInvariants();
}

TEST_P(DiscardTest, DiscardNeverPopulatedRangeIsNoOp)
{
    mem::VirtAddr a = drv_.allocManaged(2 * kBigPageSize, "a");
    t_ = drv_.discard(a, 2 * kBigPageSize, mode(), t_);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    EXPECT_EQ(b->discarded.count(), 0u);
    EXPECT_EQ(drv_.counters().get("discarded_pages"), 0u);
    drv_.checkInvariants();
}

TEST_P(DiscardTest, PartialDiscardOfBigMappingIsIgnored)
{
    mem::VirtAddr a = gpuBlockWithValue(3);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    ASSERT_TRUE(b->gpu_mapping_big);
    // Discard only the first half of the block.
    t_ = drv_.discard(a, kBigPageSize / 2, mode(), t_);
    EXPECT_EQ(b->discarded.count(), 0u);
    EXPECT_EQ(drv_.counters().get("discard_ignored_partial"), 1u);
    EXPECT_TRUE(b->gpu_mapping_big);  // mapping not split
    drv_.checkInvariants();
}

TEST_P(DiscardTest, PartialDiscardOfSmallMappingsIsHonoured)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    // Build up the block with two sub-block accesses => 4 KB PTEs.
    t_ = drv_.gpuAccess(0, access(a, kBigPageSize / 2,
                                  AccessKind::kWrite), t_);
    t_ = drv_.gpuAccess(0, access(a + kBigPageSize / 2,
                                  kBigPageSize / 2, AccessKind::kWrite),
                        t_);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    ASSERT_FALSE(b->gpu_mapping_big);

    t_ = drv_.discard(a, kBigPageSize / 2, mode(), t_);
    EXPECT_EQ(b->discarded.count(), 256u);
    // Mixed live/discarded blocks stay on the used queue.
    EXPECT_EQ(b->link.on, QueueKind::kUsed);
    drv_.checkInvariants();
}

TEST_P(DiscardTest, PartialDiscardSplitsWhenAblationEnabled)
{
    UvmConfig cfg = test::tinyConfig(4);
    cfg.partial_discard_splits = true;
    UvmDriver drv(cfg, test::testLink());
    mem::VirtAddr a = drv.allocManaged(kBigPageSize, "a");
    sim::SimTime t = drv.prefetch(a, kBigPageSize, ProcessorId::gpu(0),
                                  0);
    VaBlock *b = drv.vaSpace().blockOf(a);
    ASSERT_TRUE(b->gpu_mapping_big);
    t = drv.discard(a, kBigPageSize / 2, mode(), t);
    EXPECT_EQ(b->discarded.count(), 256u);
    if (mode() == DiscardMode::kEager) {
        // Eager unmapping of half the block splits the 2 MB PTE.
        EXPECT_FALSE(b->gpu_mapping_big);
    } else {
        // Lazy keeps the mappings; the split is deferred to reclaim.
        EXPECT_TRUE(b->gpu_mapping_big);
    }
    drv.checkInvariants();
}

TEST_P(DiscardTest, MixedBlockEvictionTransfersOnlyLivePages)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    // Two half-block accesses so the mapping stays 4 KB-grained.
    t_ = drv_.gpuAccess(0, access(a, kBigPageSize / 2,
                                  AccessKind::kWrite), t_);
    t_ = drv_.gpuAccess(0, access(a + kBigPageSize / 2,
                                  kBigPageSize / 2, AccessKind::kWrite),
                        t_);
    t_ = drv_.discard(a, kBigPageSize / 2, mode(), t_);

    mem::VirtAddr spill = drv_.allocManaged(4 * kBigPageSize, "spill");
    t_ = drv_.prefetch(spill, 4 * kBigPageSize, ProcessorId::gpu(0),
                       t_);
    // Only the live half moved over the link.
    EXPECT_EQ(drv_.trafficD2h(), kBigPageSize / 2);
    EXPECT_EQ(drv_.counters().get("saved_d2h_bytes"),
              kBigPageSize / 2);
    drv_.checkInvariants();
}

TEST_P(DiscardTest, RediscardKeepsFifoPosition)
{
    mem::VirtAddr a = gpuBlockWithValue(1);
    mem::VirtAddr b = gpuBlockWithValue(2);
    t_ = drv_.discard(a, kBigPageSize, mode(), t_);
    t_ = drv_.discard(b, kBigPageSize, mode(), t_);
    t_ = drv_.discard(a, kBigPageSize, mode(), t_);  // re-discard
    // FIFO: a (discarded first) must still be reclaimed first.
    EXPECT_EQ(drv_.queues(0).discardedQueue().front(),
              drv_.vaSpace().blockOf(a));
}

TEST_F(DiscardFixture, EagerReaccessFaultsAndRecovers)
{
    // Non-parameterized: eager-specific fault behaviour.
    mem::VirtAddr a = gpuBlockWithValue(5);
    drv_.pokeValue<std::uint64_t>(a, 99);
    t_ = drv_.discard(a, kBigPageSize, DiscardMode::kEager, t_);

    auto faults_before = drv_.counters().get("gpu_fault_batches");
    t_ = drv_.gpuAccess(0, access(a, kBigPageSize, AccessKind::kWrite),
                        t_);
    EXPECT_EQ(drv_.counters().get("gpu_fault_batches"),
              faults_before + 1);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    // Fault recovers the chunk from the discarded queue: data intact,
    // no transfer, block live again.
    EXPECT_EQ(b->link.on, QueueKind::kUsed);
    EXPECT_EQ(b->discarded.count(), 0u);
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a), 99u);
    drv_.checkInvariants();
}

TEST_F(DiscardFixture, LazyWriteWithoutPrefetchWarnsAndCanLoseData)
{
    mem::VirtAddr a = gpuBlockWithValue(5);
    t_ = drv_.discard(a, kBigPageSize, DiscardMode::kLazy, t_);

    // Write through the still-live mapping WITHOUT the mandatory
    // prefetch: the driver cannot see it.
    sim::resetWarnCount();
    t_ = drv_.gpuAccess(0, access(a, kBigPageSize, AccessKind::kWrite),
                        t_);
    drv_.pokeValue<std::uint64_t>(a, 4242);
    EXPECT_GE(sim::warnCount(), 1u);
    EXPECT_GE(drv_.counters().get("lazy_contract_writes"), 1u);

    // Under pressure the page is reclaimed as discarded: data lost.
    mem::VirtAddr spill = drv_.allocManaged(4 * kBigPageSize, "spill");
    t_ = drv_.prefetch(spill, 4 * kBigPageSize, ProcessorId::gpu(0),
                       t_);
    EXPECT_NE(drv_.peekValue<std::uint64_t>(a), 4242u);
    drv_.checkInvariants();
}

TEST_F(DiscardFixture, LazyPrefetchSetsDirtyBitsCheaply)
{
    mem::VirtAddr a = gpuBlockWithValue(5);
    t_ = drv_.discard(a, kBigPageSize, DiscardMode::kLazy, t_);

    auto unmaps = drv_.counters().get("gpu_unmap_ops");
    auto maps = drv_.counters().get("gpu_map_ops");
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    EXPECT_EQ(b->discarded.count(), 0u);
    EXPECT_EQ(b->link.on, QueueKind::kUsed);
    // No mapping work was needed — the bits were just set.
    EXPECT_EQ(drv_.counters().get("gpu_unmap_ops"), unmaps);
    EXPECT_EQ(drv_.counters().get("gpu_map_ops"), maps);
    // And the data survived in place.
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a), 5u);
    drv_.checkInvariants();
}

TEST_F(DiscardFixture, LazyReclaimPaysDeferredUnmapCost)
{
    mem::VirtAddr a = gpuBlockWithValue(5);
    t_ = drv_.discard(a, kBigPageSize, DiscardMode::kLazy, t_);
    auto unmaps = drv_.counters().get("gpu_unmap_ops");

    mem::VirtAddr spill = drv_.allocManaged(4 * kBigPageSize, "spill");
    t_ = drv_.prefetch(spill, 4 * kBigPageSize, ProcessorId::gpu(0),
                       t_);
    // Reclaiming the lazily-discarded chunk had to unmap it.
    EXPECT_EQ(drv_.counters().get("gpu_unmap_ops"), unmaps + 1);
    drv_.checkInvariants();
}

TEST_F(DiscardFixture, EagerDiscardCostsMoreThanLazy)
{
    mem::VirtAddr a = gpuBlockWithValue(1);
    mem::VirtAddr b = gpuBlockWithValue(2);
    sim::SimTime t1 = drv_.discard(a, kBigPageSize, DiscardMode::kEager,
                                   t_);
    sim::SimTime t2 = drv_.discard(b, kBigPageSize, DiscardMode::kLazy,
                                   t1);
    EXPECT_GT(t1 - t_, t2 - t1);
}

TEST_F(DiscardFixture, UnpreparedChunkIsRezeroedOnReuse)
{
    // Touch only half a block on the GPU: chunk not fully prepared.
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.gpuAccess(0, access(a, kBigPageSize / 2,
                                  AccessKind::kWrite), t_);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    ASSERT_FALSE(b->fullyPrepared());

    t_ = drv_.discard(a, kBigPageSize / 2, DiscardMode::kEager, t_);
    t_ = drv_.prefetch(a, kBigPageSize / 2, ProcessorId::gpu(0), t_);
    // Section 5.7: the whole 2 MB chunk gets zeroed.
    EXPECT_EQ(drv_.counters().get("chunk_rezero_ops"), 1u);
    drv_.checkInvariants();
}

TEST_F(DiscardFixture, PreparedChunkSkipsRezero)
{
    mem::VirtAddr a = gpuBlockWithValue(5);  // fully migrated: prepared
    t_ = drv_.discard(a, kBigPageSize, DiscardMode::kEager, t_);
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    EXPECT_EQ(drv_.counters().get("chunk_rezero_ops"), 0u);
}

TEST_F(DiscardFixture, DiscardQueueAblationFallsBackToUsedQueue)
{
    UvmConfig cfg = test::tinyConfig(4);
    cfg.discard_queue_enabled = false;
    UvmDriver drv(cfg, test::testLink());
    mem::VirtAddr a = drv.allocManaged(kBigPageSize, "a");
    sim::SimTime t = drv.prefetch(a, kBigPageSize, ProcessorId::gpu(0),
                                  0);
    t = drv.discard(a, kBigPageSize, DiscardMode::kEager, t);
    VaBlock *b = drv.vaSpace().blockOf(a);
    // Without the discarded queue the block stays on the used LRU.
    EXPECT_EQ(b->link.on, QueueKind::kUsed);
    drv.checkInvariants();
}

TEST(DiscardLazyStateTest, EveryReArmClearsTheLazyState)
{
    // Two GPUs, and a two-block range driven through its first block
    // only, so every operation takes the per-block paths.
    UvmConfig cfg = test::tinyConfig(/*chunks=*/4);
    cfg.num_gpus = 2;
    UvmDriver drv(cfg, test::testLink());
    mem::VirtAddr a = drv.allocManaged(2 * kBigPageSize, "a");
    sim::SimTime t = drv.hostAccess(a, kBigPageSize, AccessKind::kWrite, 0);
    VaBlock *b = drv.vaSpace().blockOf(a);
    auto lazyDiscardOnGpu0 = [&] {
        t = drv.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t);
        t = drv.discard(a, kBigPageSize, DiscardMode::kLazy, t);
        EXPECT_EQ(b->discarded, b->valid);
        EXPECT_EQ(b->discarded_lazily, b->valid);
    };
    auto expectReArmed = [&](const char *route) {
        EXPECT_TRUE(b->discarded.none()) << route;
        EXPECT_TRUE(b->discarded_lazily.none()) << route;
        EXPECT_TRUE(drv.collectInvariantViolations().empty()) << route;
    };

    // The mandatory prefetch re-arms the pages in place (Section 5.2).
    lazyDiscardOnGpu0();
    t = drv.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t);
    EXPECT_EQ(b->owner_gpu, 0);
    expectReArmed("prefetch");

    // A host write faults the pages back to the host.
    lazyDiscardOnGpu0();
    t = drv.hostAccess(a, kBigPageSize, AccessKind::kWrite, t);
    EXPECT_EQ(b->resident_cpu, b->valid);
    expectReArmed("host write");

    // The owner's mappings survive a lazy discard, so its kernels hit;
    // a kernel on the other GPU faults and takes the block over.
    lazyDiscardOnGpu0();
    t = drv.gpuAccess(1, {{a, kBigPageSize, AccessKind::kWrite}}, t);
    EXPECT_EQ(b->owner_gpu, 1);
    expectReArmed("kernel fault");
}

INSTANTIATE_TEST_SUITE_P(BothModes, DiscardTest,
                         ::testing::Values(DiscardMode::kEager,
                                           DiscardMode::kLazy),
                         [](const auto &info) {
                             return info.param == DiscardMode::kEager
                                        ? "Eager"
                                        : "Lazy";
                         });

}  // namespace
}  // namespace uvmd::uvm
