/**
 * @file
 * Tests for the Section 2.3 cache-coherent remote-access mode:
 * memAdvise hints, in-place access without migration, per-access
 * traffic, interaction with migration and discard, and data
 * integrity through remote reads/writes.
 */

#include <gtest/gtest.h>

#include "test_util.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {
namespace {

using mem::kBigPageSize;

class RemoteAccessTest : public ::testing::Test
{
  protected:
    RemoteAccessTest()
        : drv_(test::tinyConfig(/*chunks=*/4), test::testLink())
    {
        a_ = drv_.allocManaged(kBigPageSize, "a");
        t_ = drv_.hostAccess(a_, kBigPageSize, AccessKind::kWrite, t_);
        drv_.pokeValue<std::uint64_t>(a_, 99);
    }

    std::vector<Access>
    access(AccessKind kind)
    {
        return {{a_, kBigPageSize, kind}};
    }

    UvmDriver drv_;
    mem::VirtAddr a_ = 0;
    sim::SimTime t_ = 0;
};

TEST_F(RemoteAccessTest, AdvisedReadStaysInPlace)
{
    drv_.memAdvise(a_, kBigPageSize, MemAdvise::kSetAccessedBy, 0);
    t_ = drv_.gpuAccess(0, access(AccessKind::kRead), t_);
    VaBlock *b = drv_.vaSpace().blockOf(a_);
    // No migration happened: the block is still CPU-resident.
    EXPECT_EQ(b->resident_cpu.count(), 512u);
    EXPECT_FALSE(b->has_gpu_chunk);
    EXPECT_EQ(b->remote_mapped, 1u);
    // But the read crossed the link.
    EXPECT_EQ(drv_.counters().get("remote_read_bytes"), kBigPageSize);
    EXPECT_EQ(drv_.trafficH2d(), kBigPageSize);
    drv_.checkInvariants();
}

TEST_F(RemoteAccessTest, PreferredLocationCpuBehavesTheSame)
{
    drv_.memAdvise(a_, kBigPageSize,
                   MemAdvise::kSetPreferredLocationCpu);
    t_ = drv_.gpuAccess(0, access(AccessKind::kRead), t_);
    VaBlock *b = drv_.vaSpace().blockOf(a_);
    EXPECT_FALSE(b->has_gpu_chunk);
    EXPECT_EQ(drv_.counters().get("remote_read_bytes"), kBigPageSize);
}

TEST_F(RemoteAccessTest, EveryAccessPaysTraffic)
{
    drv_.memAdvise(a_, kBigPageSize, MemAdvise::kSetAccessedBy, 0);
    for (int i = 0; i < 5; ++i)
        t_ = drv_.gpuAccess(0, access(AccessKind::kRead), t_);
    // 5x the buffer over the link — the Section 2.3 bandwidth trap.
    EXPECT_EQ(drv_.trafficH2d(), 5 * kBigPageSize);
    // The mapping was established exactly once.
    EXPECT_EQ(drv_.counters().get("remote_mappings"), 1u);
}

TEST_F(RemoteAccessTest, RemoteWritesGoHostWard)
{
    drv_.memAdvise(a_, kBigPageSize, MemAdvise::kSetAccessedBy, 0);
    t_ = drv_.gpuAccess(0, access(AccessKind::kWrite), t_);
    drv_.pokeValue<std::uint64_t>(a_, 1234);
    EXPECT_EQ(drv_.trafficD2h(), kBigPageSize);
    // The write landed in the (still CPU-resident) copy.
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a_), 1234u);
    // And the host sees it with no further migration.
    t_ = drv_.hostAccess(a_, kBigPageSize, AccessKind::kRead, t_);
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a_), 1234u);
    drv_.checkInvariants();
}

TEST_F(RemoteAccessTest, UnsetRevertsToMigration)
{
    drv_.memAdvise(a_, kBigPageSize, MemAdvise::kSetAccessedBy, 0);
    t_ = drv_.gpuAccess(0, access(AccessKind::kRead), t_);
    drv_.memAdvise(a_, kBigPageSize, MemAdvise::kUnsetAccessedBy, 0);
    t_ = drv_.gpuAccess(0, access(AccessKind::kRead), t_);
    VaBlock *b = drv_.vaSpace().blockOf(a_);
    EXPECT_TRUE(b->has_gpu_chunk);  // migrated this time
    EXPECT_EQ(b->resident_gpu.count(), 512u);
    EXPECT_EQ(drv_.peekValue<std::uint64_t>(a_), 99u);
    drv_.checkInvariants();
}

TEST_F(RemoteAccessTest, ExplicitPrefetchOverridesTheHint)
{
    drv_.memAdvise(a_, kBigPageSize, MemAdvise::kSetAccessedBy, 0);
    t_ = drv_.gpuAccess(0, access(AccessKind::kRead), t_);
    // An explicit prefetch still migrates (the application knows
    // better) and invalidates the remote mapping.
    t_ = drv_.prefetch(a_, kBigPageSize, ProcessorId::gpu(0), t_);
    VaBlock *b = drv_.vaSpace().blockOf(a_);
    EXPECT_TRUE(b->has_gpu_chunk);
    EXPECT_EQ(b->remote_mapped, 0u);
    // Subsequent accesses are local: no new remote traffic.
    sim::Bytes before = drv_.trafficH2d();
    t_ = drv_.gpuAccess(0, access(AccessKind::kRead), t_);
    EXPECT_EQ(drv_.trafficH2d(), before);
    drv_.checkInvariants();
}

TEST_F(RemoteAccessTest, EagerDiscardDropsRemoteMappings)
{
    drv_.memAdvise(a_, kBigPageSize, MemAdvise::kSetAccessedBy, 0);
    t_ = drv_.gpuAccess(0, access(AccessKind::kRead), t_);
    t_ = drv_.discard(a_, kBigPageSize, DiscardMode::kEager, t_);
    VaBlock *b = drv_.vaSpace().blockOf(a_);
    EXPECT_EQ(b->remote_mapped, 0u);
    // Re-access re-establishes the mapping.
    t_ = drv_.gpuAccess(0, access(AccessKind::kRead), t_);
    EXPECT_EQ(drv_.counters().get("remote_mappings"), 2u);
    drv_.checkInvariants();
}

TEST_F(RemoteAccessTest, RemoteModeAvoidsEvictionPressure)
{
    drv_.memAdvise(a_, kBigPageSize, MemAdvise::kSetAccessedBy, 0);
    t_ = drv_.gpuAccess(0, access(AccessKind::kRead), t_);
    // Fill the GPU completely: the remote block owns no chunk, so
    // nothing of it can be evicted.
    mem::VirtAddr spill = drv_.allocManaged(4 * kBigPageSize, "s");
    t_ = drv_.prefetch(spill, 4 * kBigPageSize, ProcessorId::gpu(0),
                       t_);
    EXPECT_EQ(drv_.counters().get("evictions_used"), 0u);
    drv_.checkInvariants();
}

}  // namespace
}  // namespace uvmd::uvm
