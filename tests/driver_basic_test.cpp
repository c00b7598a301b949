/**
 * @file
 * Driver-model tests without discard: population, migration in both
 * directions, fault costs, pinned CPU pages, eviction order and LRU
 * behaviour, data integrity through migrations, and the internal
 * invariant checker.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {
namespace {

using mem::kBigPageSize;
using mem::kSmallPageSize;
using mem::QueueKind;

class DriverTest : public ::testing::Test
{
  protected:
    DriverTest() : drv_(test::tinyConfig(/*chunks=*/4), test::testLink())
    {}

    UvmDriver drv_;
    sim::SimTime t_ = 0;

    std::vector<Access>
    rw(mem::VirtAddr addr, sim::Bytes size)
    {
        return {{addr, size, AccessKind::kReadWrite}};
    }
};

TEST_F(DriverTest, HostFirstTouchPopulatesZeroFilledCpuPages)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    EXPECT_EQ(b->resident_cpu.count(), 512u);
    EXPECT_EQ(b->mapped_cpu.count(), 512u);
    EXPECT_FALSE(b->has_gpu_chunk);
    EXPECT_EQ(drv_.totalTrafficBytes(), 0u);
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a), 0u);
    drv_.checkInvariants();
}

TEST_F(DriverTest, GpuFirstTouchZeroFillsWithoutTraffic)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.gpuAccess(0, rw(a, kBigPageSize), t_);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    EXPECT_EQ(b->resident_gpu.count(), 512u);
    EXPECT_TRUE(b->has_gpu_chunk);
    EXPECT_TRUE(b->fullyPrepared());
    EXPECT_EQ(b->link.on, QueueKind::kUsed);
    EXPECT_EQ(drv_.totalTrafficBytes(), 0u);
    EXPECT_EQ(drv_.counters().get("gpu_fault_batches"), 1u);
    drv_.checkInvariants();
}

TEST_F(DriverTest, PrefetchMigratesDataHostToDevice)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    drv_.pokeValue<std::uint64_t>(a + 64, 0xabcdef);

    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    EXPECT_EQ(b->resident_gpu.count(), 512u);
    EXPECT_EQ(b->resident_cpu.count(), 0u);
    // The CPU pages stay pinned while the block is on the GPU.
    EXPECT_EQ(b->cpu_pages_present.count(), 512u);
    EXPECT_EQ(b->mapped_cpu.count(), 0u);
    EXPECT_EQ(b->mapped_gpu.count(), 512u);
    EXPECT_TRUE(b->gpu_mapping_big);
    EXPECT_EQ(drv_.trafficH2d(), kBigPageSize);
    EXPECT_EQ(drv_.trafficD2h(), 0u);
    // Data followed the migration.
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a + 64), 0xabcdefu);
    drv_.checkInvariants();
}

TEST_F(DriverTest, HostAccessPullsDataBack)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    t_ = drv_.gpuAccess(0, rw(a, kBigPageSize), t_);
    drv_.pokeValue<std::uint32_t>(a, 42);  // GPU-side write

    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kRead, t_);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    EXPECT_EQ(b->resident_cpu.count(), 512u);
    EXPECT_EQ(b->resident_gpu.count(), 0u);
    EXPECT_EQ(drv_.trafficD2h(), kBigPageSize);
    EXPECT_EQ(drv_.peekValue<std::uint32_t>(a), 42u);
    // The drained chunk lands on the unused queue for cheap reclaim.
    EXPECT_EQ(b->link.on, QueueKind::kUnused);
    EXPECT_TRUE(b->has_gpu_chunk);
    drv_.checkInvariants();
}

TEST_F(DriverTest, PrefetchOfResidentBlockIsRecencyOnly)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    sim::Bytes before = drv_.totalTrafficBytes();
    sim::SimTime t1 = drv_.prefetch(a, kBigPageSize,
                                    ProcessorId::gpu(0), t_);
    EXPECT_EQ(drv_.totalTrafficBytes(), before);
    EXPECT_EQ(t1 - t_, drv_.config().recency_touch_cost);
    EXPECT_EQ(drv_.counters().get("prefetch_recency_only"), 1u);
}

TEST_F(DriverTest, EvictionReclaimsLruBlockWithTransfer)
{
    // 4-chunk GPU; populate 4 blocks then touch block 0 to make it
    // MRU; the 5th allocation must evict block 1 (the LRU).
    mem::VirtAddr a = drv_.allocManaged(5 * kBigPageSize, "a");
    for (int i = 0; i < 4; ++i) {
        t_ = drv_.prefetch(a + i * kBigPageSize, kBigPageSize,
                           ProcessorId::gpu(0), t_);
    }
    t_ = drv_.gpuAccess(0, rw(a, kBigPageSize), t_);  // touch block 0

    t_ = drv_.prefetch(a + 4 * kBigPageSize, kBigPageSize,
                       ProcessorId::gpu(0), t_);

    VaBlock *b0 = drv_.vaSpace().blockOf(a);
    VaBlock *b1 = drv_.vaSpace().blockOf(a + kBigPageSize);
    EXPECT_TRUE(b0->resident_gpu.any());
    EXPECT_FALSE(b1->resident_gpu.any());  // evicted
    EXPECT_EQ(drv_.counters().get("evictions_used"), 1u);
    // The evicted zero-filled pages still transfer: without discard
    // the driver cannot know they are junk.
    EXPECT_EQ(drv_.trafficD2h(), kBigPageSize);
    drv_.checkInvariants();
}

TEST_F(DriverTest, EvictionPrefersUnusedChunks)
{
    mem::VirtAddr a = drv_.allocManaged(5 * kBigPageSize, "a");
    for (int i = 0; i < 4; ++i) {
        t_ = drv_.prefetch(a + i * kBigPageSize, kBigPageSize,
                           ProcessorId::gpu(0), t_);
    }
    // Pull block 2 back to the CPU: its chunk becomes unused.
    t_ = drv_.hostAccess(a + 2 * kBigPageSize, kBigPageSize,
                         AccessKind::kRead, t_);
    sim::Bytes d2h_before = drv_.trafficD2h();

    t_ = drv_.prefetch(a + 4 * kBigPageSize, kBigPageSize,
                       ProcessorId::gpu(0), t_);
    // The unused chunk was reclaimed: no extra D2H traffic, no
    // used-queue eviction.
    EXPECT_EQ(drv_.trafficD2h(), d2h_before);
    EXPECT_EQ(drv_.counters().get("evictions_unused"), 1u);
    EXPECT_EQ(drv_.counters().get("evictions_used"), 0u);
    drv_.checkInvariants();
}

TEST_F(DriverTest, OccupierReservationForcesEviction)
{
    drv_.reserveGpuMemory(0, 3 * kBigPageSize);
    mem::VirtAddr a = drv_.allocManaged(2 * kBigPageSize, "a");
    t_ = drv_.prefetch(a, 2 * kBigPageSize, ProcessorId::gpu(0), t_);
    EXPECT_EQ(drv_.counters().get("evictions_used"), 1u);
    drv_.checkInvariants();
}

TEST_F(DriverTest, ExhaustionWithNothingEvictableIsFatal)
{
    drv_.reserveGpuMemory(0, 4 * kBigPageSize);
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    EXPECT_THROW(drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), 0),
                 sim::FatalError);
}

TEST_F(DriverTest, GpuFaultCostsMoreThanPrefetchPath)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    mem::VirtAddr b = drv_.allocManaged(kBigPageSize, "b");
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    t_ = drv_.hostAccess(b, kBigPageSize, AccessKind::kWrite, t_);

    sim::SimTime pf_end =
        drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    sim::SimTime pf_cost = pf_end - t_;

    sim::SimTime fault_end = drv_.gpuAccess(0, rw(b, kBigPageSize),
                                            pf_end);
    sim::SimTime fault_cost = fault_end - pf_end;
    EXPECT_GT(fault_cost, pf_cost);
    drv_.checkInvariants();
}

TEST_F(DriverTest, PartialRangeOperationsRespectValidMask)
{
    // A 1 MiB range occupies half a block.
    mem::VirtAddr a = drv_.allocManaged(sim::kMiB, "a");
    t_ = drv_.prefetch(a, sim::kMiB, ProcessorId::gpu(0), t_);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    EXPECT_EQ(b->resident_gpu.count(), 256u);
    EXPECT_TRUE(b->fullyPrepared());  // all *valid* pages prepared
    drv_.checkInvariants();
}

TEST_F(DriverTest, FreeManagedReleasesEverything)
{
    mem::VirtAddr a = drv_.allocManaged(3 * kBigPageSize, "a");
    t_ = drv_.prefetch(a, 3 * kBigPageSize, ProcessorId::gpu(0), t_);
    EXPECT_EQ(drv_.allocator(0).allocatedChunks(), 3u);
    drv_.freeManaged(a);
    EXPECT_EQ(drv_.allocator(0).allocatedChunks(), 0u);
    EXPECT_EQ(drv_.vaSpace().blockCount(), 0u);
    drv_.checkInvariants();
}

TEST_F(DriverTest, SubBlockAccessFaultsOnlyMissingPages)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    // Touch the first 16 pages from the GPU.
    t_ = drv_.gpuAccess(0, rw(a, 16 * kSmallPageSize), t_);
    VaBlock *b = drv_.vaSpace().blockOf(a);
    EXPECT_EQ(b->resident_gpu.count(), 16u);
    EXPECT_FALSE(b->fullyPrepared());
    EXPECT_FALSE(b->gpu_mapping_big);

    // Touching them again does not fault.
    auto faults = drv_.counters().get("gpu_fault_batches");
    t_ = drv_.gpuAccess(0, rw(a, 16 * kSmallPageSize), t_);
    EXPECT_EQ(drv_.counters().get("gpu_fault_batches"), faults);
    drv_.checkInvariants();
}

TEST_F(DriverTest, PokeUnpopulatedPageIsRejected)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    EXPECT_DEATH(drv_.pokeValue<int>(a, 1), "not populated");
}

TEST_F(DriverTest, DataSurvivesEvictionRoundTrip)
{
    mem::VirtAddr a = drv_.allocManaged(4 * kBigPageSize, "a");
    // Write a distinctive value into each block from the host.
    for (std::uint64_t i = 0; i < 4; ++i) {
        t_ = drv_.hostAccess(a + i * kBigPageSize, kBigPageSize,
                             AccessKind::kWrite, t_);
        drv_.pokeValue<std::uint64_t>(a + i * kBigPageSize, 100 + i);
    }
    t_ = drv_.prefetch(a, 4 * kBigPageSize, ProcessorId::gpu(0), t_);

    // Allocate another range to force evictions of all four blocks.
    mem::VirtAddr spill = drv_.allocManaged(4 * kBigPageSize, "spill");
    t_ = drv_.prefetch(spill, 4 * kBigPageSize, ProcessorId::gpu(0),
                       t_);

    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(drv_.peekValue<std::uint64_t>(a + i * kBigPageSize),
                  100 + i);
    }
    drv_.checkInvariants();
}

TEST_F(DriverTest, DumpStatsListsKeyCounters)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    std::ostringstream os;
    drv_.dumpStatsJson(os);
    std::string s = os.str();
    const std::string block = std::to_string(kBigPageSize);
    const std::string busy = std::to_string(
        drv_.link(0)
            .engineAt(interconnect::Direction::kHostToDevice, 0)
            .busyTime());
    EXPECT_NE(s.find("\"bytes_h2d.prefetch\":" + block),
              std::string::npos);
    EXPECT_NE(s.find("\"gpus\":[{\"link\":{\"bytes_h2d\":" + block),
              std::string::npos);
    EXPECT_NE(s.find("\"allocated\":1,"), std::string::npos);
    EXPECT_NE(s.find(",\"used\":1,"), std::string::npos);
    EXPECT_NE(s.find("\"copy_engines\":{\"h2d\":{\"descriptors\":1,"
                     "\"busy\":[" +
                     busy + "]}"),
              std::string::npos);
    EXPECT_NE(s.find("\"dma_descriptors\":1,"), std::string::npos);
}

TEST_F(DriverTest, DumpStatsJsonIsBalancedAndListsKeyCounters)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    std::ostringstream os;
    drv_.dumpStatsJson(os);
    std::string s = os.str();

    EXPECT_NE(s.find("\"uvm\""), std::string::npos);
    EXPECT_NE(s.find("\"dma_descriptors\":1"), std::string::npos);
    EXPECT_NE(s.find("\"bytes_h2d.prefetch\""), std::string::npos);
    EXPECT_NE(s.find("\"gpus\""), std::string::npos);
    EXPECT_NE(s.find("\"copy_engines\""), std::string::npos);
    EXPECT_NE(s.find("\"busy\""), std::string::npos);
    EXPECT_NE(s.find("\"peer\""), std::string::npos);

    // Structurally sound: braces/brackets balance and never go
    // negative (no string values contain braces, so counting works).
    int depth = 0;
    for (char c : s) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(s.find(",,"), std::string::npos);
    EXPECT_EQ(s.find("{,"), std::string::npos);
}

}  // namespace
}  // namespace uvmd::uvm
