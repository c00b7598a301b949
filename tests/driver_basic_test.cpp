/**
 * @file
 * Driver-model tests without discard: population, migration in both
 * directions, fault costs, pinned CPU pages, eviction order and LRU
 * behaviour, data integrity through migrations, and the internal
 * invariant checker.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

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
    EXPECT_TRUE(drv_.tryFreeManaged(a));
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

/**
 * Twin drivers given the same ops: one writes and reads the word at
 * offset 0 of each page through the per-span pokeWords / peekWords,
 * the other page by page through pokeValue / peekValue.  The buffer
 * spans three blocks and ends 100 bytes into a page, and its middle
 * block holds both host- and GPU-resident pages.
 */
TEST(DriverWordIoTest, SpanIoMatchesPerPageIo)
{
    const sim::Bytes size = 2 * kBigPageSize + 7 * kSmallPageSize + 100;
    UvmDriver span(test::tinyConfig(4), test::testLink());
    UvmDriver page(test::tinyConfig(4), test::testLink());
    mem::VirtAddr a = 0;
    for (UvmDriver *d : {&span, &page}) {
        a = d->allocManaged(size, "buf");
        sim::SimTime t = d->hostAccess(a, size, AccessKind::kWrite, 0);
        d->prefetch(a + kBigPageSize + 100 * kSmallPageSize,
                    200 * kSmallPageSize, ProcessorId::gpu(0), t);
    }
    const VaBlock *mid = span.vaSpace().blockOf(a + kBigPageSize);
    ASSERT_EQ(mid->resident_gpu.count(), 200u);
    ASSERT_EQ(mid->resident_cpu.count(), mem::kPagesPerBlock - 200);

    // Every page whose first 8 bytes lie in the buffer, per block.
    const std::uint32_t spans[3][2] = {
        {0, mem::kPagesPerBlock}, {0, mem::kPagesPerBlock}, {0, 8}};
    std::vector<std::uint64_t> words(mem::kPagesPerBlock);
    for (std::uint32_t b = 0; b < 3; ++b) {
        const mem::VirtAddr base = a + b * kBigPageSize;
        const auto [lo, hi] = spans[b];
        for (std::uint32_t p = lo; p < hi; ++p) {
            words[p - lo] = 0x5eed0000'00000000 + b * 1000 + p;
            page.pokeValue<std::uint64_t>(base + p * kSmallPageSize,
                                          words[p - lo]);
        }
        span.pokeWords(base, lo, {words.data(), hi - lo});
    }

    // The same bytes everywhere in the buffer, in both copy slots.
    auto expectSameBytes = [&] {
        std::vector<std::uint8_t> x(size), y(size);
        span.peek(a, x.data(), size);
        page.peek(a, y.data(), size);
        EXPECT_EQ(x, y);
        for (mem::CopySlot slot :
             {mem::CopySlot::kHost, mem::CopySlot::kDevice}) {
            for (mem::VirtAddr va = a; va < a + size;
                 va += kSmallPageSize) {
                std::uint64_t u = 1, v = 2;
                span.backing().read(va, &u, sizeof(u), slot);
                page.backing().read(va, &v, sizeof(v), slot);
                ASSERT_EQ(u, v) << "page " << (va - a) / kSmallPageSize;
            }
        }
    };
    expectSameBytes();

    // A read span inside the mixed block, across the GPU pages'
    // edges, matches per-page reads.
    auto expectSpanReads = [&] {
        const mem::VirtAddr base = a + kBigPageSize;
        std::vector<std::uint64_t> got(300, 1);
        span.peekWords(base, 50, got);
        for (std::uint32_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i], page.peekValue<std::uint64_t>(
                                  base + (50 + i) * kSmallPageSize))
                << "page " << 50 + i;
        }
    };
    expectSpanReads();

    // After a migration moved the whole buffer, and after a span write
    // that lands on both sides of the block.
    for (UvmDriver *d : {&span, &page})
        d->prefetch(a, kBigPageSize + 150 * kSmallPageSize,
                    ProcessorId::gpu(0), 0);
    expectSameBytes();
    expectSpanReads();
    std::vector<std::uint64_t> more(300);
    for (std::uint32_t i = 0; i < more.size(); ++i) {
        more[i] = 0xfeed0000 + i;
        page.pokeValue<std::uint64_t>(
            a + kBigPageSize + (50 + i) * kSmallPageSize, more[i]);
    }
    span.pokeWords(a + kBigPageSize, 50, more);
    expectSameBytes();
    expectSpanReads();
}

TEST(DriverWordIoDeathTest, SpanIoChecksTheSpan)
{
    UvmDriver drv(test::tinyConfig(4), test::testLink());
    mem::VirtAddr a = drv.allocManaged(kBigPageSize, "a");
    drv.hostAccess(a, 10 * kSmallPageSize, AccessKind::kWrite, 0);
    std::vector<std::uint64_t> words(12, 7);
    // Pages 10 and 11 are not populated.
    EXPECT_DEATH(drv.pokeWords(a, 0, words), "not populated");
    const mem::VirtAddr unmanaged = a + 64 * kBigPageSize;
    EXPECT_DEATH(drv.pokeWords(unmanaged, 0, words), "unmanaged address");
    EXPECT_DEATH(drv.peekWords(unmanaged, 0, words), "unmanaged address");
    EXPECT_DEATH(drv.peekWords(a, mem::kPagesPerBlock - 11, words),
                 "crosses a block boundary");
}

TEST(DriverWordIoTest, DisabledStoreIgnoresWritesAndReadsZeros)
{
    UvmConfig cfg = test::tinyConfig(4);
    cfg.backed = false;
    UvmDriver drv(cfg, test::testLink());
    mem::VirtAddr a = drv.allocManaged(kBigPageSize, "a");
    drv.hostAccess(a, kBigPageSize, AccessKind::kWrite, 0);
    std::vector<std::uint64_t> words(mem::kPagesPerBlock, 7);
    drv.pokeWords(a, 0, words);
    drv.peekWords(a, 0, words);
    EXPECT_EQ(words, std::vector<std::uint64_t>(mem::kPagesPerBlock, 0));
    EXPECT_EQ(drv.backing().materializedPages(), 0u);
}

TEST_F(DriverTest, LazyStateOffTheGpuIsAnInvariantViolation)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    EXPECT_TRUE(drv_.collectInvariantViolations().empty());
    // Only GPU-resident pages can be lazily discarded: the deferred
    // unmap is paid when their chunk is reclaimed (Section 5.6).
    drv_.vaSpace().blockOf(a)->discarded_lazily.set(3);
    std::vector<InvariantViolation> v = drv_.collectInvariantViolations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].code, "lazy-not-gpu-resident");
    EXPECT_EQ(v[0].block, a);
    EXPECT_EQ(v[0].pages, 1u);
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
    EXPECT_NE(s.find("\"allocated\":1,"), std::string::npos);
    EXPECT_NE(s.find(",\"used\":1,"), std::string::npos);
    EXPECT_NE(s.find("\"gpus\":[{\"copy_engines\":{\"h2d\":{\"busy\":[" +
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
