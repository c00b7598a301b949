/**
 * @file
 * Tests for the Auditor's discard advice: it must flag buffers whose
 * dead data caused redundant transfers, ignore healthy buffers,
 * attribute wasted bytes to the right range (every redundant and
 * skipped byte to some range), and fall silent once the application
 * inserts the discards it suggested.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "test_util.hpp"
#include "trace/auditor.hpp"
#include "uvm/driver.hpp"
#include "workloads/hash_join.hpp"

namespace uvmd::trace {
namespace {

using mem::kBigPageSize;
using uvm::AccessKind;
using uvm::DiscardMode;
using uvm::ProcessorId;
using uvm::UvmDriver;

class AdvisorTest : public ::testing::Test
{
  protected:
    AdvisorTest()
        : drv_(test::tinyConfig(/*chunks=*/2), test::testLink())
    {
        drv_.setObserver(&advisor_);
    }

    /** Run the Figure-2 temp-buffer pattern: GPU-private scratch
     *  written, read, then overwritten next cycle — with evictions
     *  in between.  Optionally with the discard the advisor would
     *  suggest. */
    void
    runTempPattern(bool with_discard, int cycles = 3)
    {
        mem::VirtAddr tmp = drv_.allocManaged(kBigPageSize, "temp");
        mem::VirtAddr hot = drv_.allocManaged(2 * kBigPageSize, "hot");
        for (int i = 0; i < cycles; ++i) {
            if (with_discard) {
                t_ = drv_.prefetch(tmp, kBigPageSize,
                                   ProcessorId::gpu(0), t_);
            }
            t_ = drv_.gpuAccess(
                0, {{tmp, kBigPageSize, AccessKind::kWrite}}, t_);
            t_ = drv_.gpuAccess(
                0, {{tmp, kBigPageSize, AccessKind::kRead}}, t_);
            if (with_discard) {
                t_ = drv_.discard(tmp, kBigPageSize,
                                  DiscardMode::kEager, t_);
            }
            // Pressure phase: the hot buffer evicts tmp.
            t_ = drv_.prefetch(hot, 2 * kBigPageSize,
                               ProcessorId::gpu(0), t_);
            t_ = drv_.gpuAccess(
                0, {{hot, 2 * kBigPageSize, AccessKind::kReadWrite}},
                t_);
        }
    }

    UvmDriver drv_;
    Auditor advisor_;
    sim::SimTime t_ = 0;
};

TEST_F(AdvisorTest, FlagsTheTempBuffer)
{
    runTempPattern(/*with_discard=*/false);
    auto suggestions = advisor_.suggestions();
    test::expectAttributionConserved(advisor_, test::savedBytes(drv_),
                                     "temp pattern");
    ASSERT_FALSE(suggestions.empty());
    EXPECT_EQ(suggestions.front().range_name, "temp");
    EXPECT_GT(suggestions.front().wasted_bytes, 0u);
    EXPECT_GE(suggestions.front().dead_cycles, 2u);
    EXPECT_NE(suggestions.front().advice().find("UvmDiscard"),
              std::string::npos);
}

TEST_F(AdvisorTest, HealthyBufferIsNotFlagged)
{
    runTempPattern(/*with_discard=*/false);
    // The hot buffer's data is reused every cycle: its transfers are
    // required, so it must not appear.
    for (const auto &s : advisor_.suggestions())
        EXPECT_NE(s.range_name, "hot");
}

TEST_F(AdvisorTest, SilentOnceDiscardsAreInserted)
{
    runTempPattern(/*with_discard=*/true);
    auto suggestions = advisor_.suggestions();
    test::expectAttributionConserved(advisor_, test::savedBytes(drv_),
                                     "temp pattern, fixed");
    for (const auto &s : suggestions)
        EXPECT_EQ(s.wasted_bytes, 0u) << s.range_name;
    EXPECT_TRUE(suggestions.empty());
}

TEST_F(AdvisorTest, MinWastedFilters)
{
    runTempPattern(false);
    auto all = advisor_.suggestions(0);
    auto none = advisor_.suggestions(sim::kGiB);
    EXPECT_FALSE(all.empty());
    EXPECT_TRUE(none.empty());
}

TEST_F(AdvisorTest, ReportMentionsTheBuffer)
{
    runTempPattern(false);
    std::ostringstream os;
    advisor_.report(os);
    EXPECT_NE(os.str().find("temp"), std::string::npos);
}

TEST_F(AdvisorTest, EmptyRunReportsNothing)
{
    std::ostringstream os;
    advisor_.report(os);
    EXPECT_NE(os.str().find("nothing to suggest"), std::string::npos);
}

TEST(AdvisorWorkloadTest, FindsHashJoinIntermediates)
{
    // Run the hash-join under plain UVM with the advisor attached:
    // it must point at the discardable intermediates the paper's
    // Section 7.4 identifies.
    uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    cfg.gpu_memory = 1 * sim::kGiB;
    cuda::Runtime rt(cfg, test::testLink());
    Auditor advisor;
    rt.driver().setObserver(&advisor);

    // A miniature hash-join round, Listing-5-free (pure UVM).
    sim::Bytes part = 160 * sim::kMiB;
    mem::VirtAddr table = rt.mallocManaged(part, "R");
    mem::VirtAddr parts = rt.mallocManaged(part, "partR");
    mem::VirtAddr result = rt.mallocManaged(part, "result");
    mem::VirtAddr spill = rt.mallocManaged(800 * sim::kMiB, "spill");
    rt.hostTouch(table, part, uvm::AccessKind::kWrite);
    for (int round = 0; round < 3; ++round) {
        cuda::KernelDesc partition;
        partition.name = "partition";
        partition.accesses = {{table, part, uvm::AccessKind::kRead},
                              {parts, part, uvm::AccessKind::kWrite}};
        rt.launch(partition);
        cuda::KernelDesc join;
        join.name = "join";
        join.accesses = {{parts, part, uvm::AccessKind::kRead},
                         {result, part, uvm::AccessKind::kWrite}};
        rt.launch(join);
        cuda::KernelDesc consume;
        consume.name = "consume";
        consume.accesses = {{result, part, uvm::AccessKind::kRead}};
        rt.launch(consume);
        // Pressure phase pushes the dead intermediates out.
        rt.prefetchAsync(spill, 800 * sim::kMiB,
                         uvm::ProcessorId::gpu(0));
        cuda::KernelDesc phase;
        phase.name = "phase";
        phase.accesses = {{spill, 800 * sim::kMiB,
                           uvm::AccessKind::kReadWrite}};
        rt.launch(phase);
        rt.synchronize();
    }

    auto suggestions = advisor.suggestions(sim::kMiB);
    test::expectAttributionConserved(advisor, test::savedBytes(rt.driver()),
                                     "hash-join");
    ASSERT_GE(suggestions.size(), 2u);
    std::vector<std::string> names;
    std::map<std::string, sim::Bytes> wasted;
    for (const auto &s : suggestions) {
        names.push_back(s.range_name);
        wasted[s.range_name] = s.wasted_bytes;
    }
    EXPECT_NE(std::find(names.begin(), names.end(), "partR"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "result"),
              names.end());
    // The live table R is reused every round: only its very last
    // eviction (after the final read) is redundant, so it must rank
    // far below the per-round-dead intermediates.
    if (wasted.count("R")) {
        EXPECT_LT(wasted["R"], wasted["partR"] / 2);
        EXPECT_LT(wasted["R"], wasted["result"] / 2);
    }
}

}  // namespace
}  // namespace uvmd::trace
