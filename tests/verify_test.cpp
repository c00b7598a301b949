/**
 * @file
 * Tests for the verification harness (src/verify): the differential
 * oracle catches each deliberate driver mutation, clean scenarios
 * pass with checks actually executed, outcomes map to the documented
 * exit codes, and both watchdog levels trip on schedule.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "verify/snapshot.hpp"
#include "verify/verified_run.hpp"
#include "verify/watchdog.hpp"

namespace uvmd::verify {
namespace {

using uvm::BugInjection;

class VerifyTest : public ::testing::Test
{
  protected:
    VerifyTest() { sim::setLogLevel(sim::LogLevel::kQuiet); }
    ~VerifyTest() override
    {
        sim::setLogLevel(sim::LogLevel::kNormal);
    }

    VerifyResult
    runWithBug(const std::string &script, BugInjection bug)
    {
        VerifyOptions opts;
        opts.bug = bug;
        return runVerifiedScenario(script, opts);
    }
};

TEST_F(VerifyTest, CleanScenarioPassesWithChecksRun)
{
    VerifyResult res = runVerifiedScenario(R"(
gpu_memory 16MiB
alloc a 4MiB
kernel writer write a compute 100us
discard a eager
prefetch a gpu
kernel reader rw a compute 100us
host_read a
free a
sync
)");
    EXPECT_EQ(res.outcome, Outcome::kOk) << res.message;
    // Exact, so a check that stops being evaluated or counted shows
    // (the last 4 are the final traffic-ledger checks).
    EXPECT_EQ(res.checks, 127u);
}


// Content tags on buffers that cross a 2 MB block boundary (3 MiB) and
// end mid-block (1536 KiB): tags are planted, verified on the device
// copies, dropped by a discard and by a kernel write, and planted
// again for the final sweep.
TEST_F(VerifyTest, ContentTagsAcrossBlockBoundaries)
{
    VerifyResult res = runVerifiedScenario(R"(
gpu_memory 16MiB
alloc a 3MiB
alloc b 1536KiB
host_write a
host_write b
kernel r read a read b compute 10us
discard a eager
kernel w write b compute 10us
host_read a
host_read b
host_write b
sync
)");
    EXPECT_EQ(res.outcome, Outcome::kOk) << res.message;
    // Exact: 1152 tag checks after the read kernel (768 + 384 pages),
    // 384 in the final sweep, the state checks of every op and the 4
    // traffic-ledger checks.
    EXPECT_EQ(res.checks, 1832u);
}

TEST_F(VerifyTest, ParseErrorIsClassified)
{
    VerifyResult res = runVerifiedScenario("allocate wat\n");
    EXPECT_EQ(res.outcome, Outcome::kParseError);
}

// One scenario per deliberate mutation (uvm::BugInjection).  Each is
// a hand-shrunk reproducer; if the oracle goes blind to any of these
// classes, the matching test fails.

TEST_F(VerifyTest, CatchesLazyRearmKeepsDirty)
{
    // Prefetch after a lazy discard must clear the dirty bits; the
    // bug leaves them set, which the prefetch postcondition sees.
    VerifyResult res = runWithBug(R"(
alloc a 2MiB
kernel k write a compute 10us
discard a lazy
prefetch a gpu
sync
)",
                                  BugInjection::kLazyRearmKeepsDirty);
    EXPECT_EQ(res.outcome, Outcome::kDivergence) << res.message;
}

TEST_F(VerifyTest, CatchesSilentDirtyBitChange)
{
    // The driver flips discard bits without emitting the observer
    // event; the event-built mirror diverges from driver state.
    VerifyResult res = runWithBug(R"(
alloc a 2MiB
kernel k write a compute 10us
discard a eager
sync
)",
                                  BugInjection::kSilentDirtyBitChange);
    EXPECT_EQ(res.outcome, Outcome::kDivergence) << res.message;
}

TEST_F(VerifyTest, CatchesSkipDiscardRequeue)
{
    // Discard leaves the block on its old queue; the oracle's
    // independent queue-placement rule flags it.
    VerifyResult res = runWithBug(R"(
alloc a 2MiB
kernel k write a compute 10us
discard a eager
sync
)",
                                  BugInjection::kSkipDiscardRequeue);
    EXPECT_EQ(res.outcome, Outcome::kDivergence) << res.message;
}

// Multi-block variants: the whole-range access leaves the 3-block
// range resident, so the discard (and the re-arming prefetch) take
// the walk-free whole-range loops, which must inject each bug exactly
// as the per-block code does.

TEST_F(VerifyTest, CatchesLazyRearmKeepsDirtyMultiBlock)
{
    VerifyResult res = runWithBug(R"(
alloc a 6MiB
kernel k write a compute 10us
discard a lazy
prefetch a gpu
sync
)",
                                  BugInjection::kLazyRearmKeepsDirty);
    EXPECT_EQ(res.outcome, Outcome::kDivergence) << res.message;
}

TEST_F(VerifyTest, CatchesSilentDirtyBitChangeMultiBlock)
{
    VerifyResult res = runWithBug(R"(
alloc a 6MiB
kernel k write a compute 10us
discard a eager
sync
)",
                                  BugInjection::kSilentDirtyBitChange);
    EXPECT_EQ(res.outcome, Outcome::kDivergence) << res.message;
}

TEST_F(VerifyTest, CatchesSkipDiscardRequeueMultiBlock)
{
    VerifyResult res = runWithBug(R"(
alloc a 6MiB
kernel k write a compute 10us
discard a eager
sync
)",
                                  BugInjection::kSkipDiscardRequeue);
    EXPECT_EQ(res.outcome, Outcome::kDivergence) << res.message;
}

TEST_F(VerifyTest, CatchesDropEvictedCpuCopy)
{
    // Eviction under pressure "forgets" the CPU copy of live pages;
    // caught as an orphaned cpu_pages_present mask.  Needs genuine
    // memory pressure, hence the sized-to-overflow allocations.
    VerifyResult res = runWithBug(R"(
gpu_memory 8MiB
occupy 1MiB
alloc b0 6144KiB
alloc b1 64KiB
kernel k6 read b0 rw b1
sync
)",
                                  BugInjection::kDropEvictedCpuCopy);
    EXPECT_EQ(res.outcome, Outcome::kDivergence) << res.message;

    // Re-reading b0 in the same kernel zero-fills the evicted block
    // before the state sweep runs, so the content check fires first.
    // Tags are verified in ascending VA order: the first failure is
    // the buffer's first page.
    res = runWithBug(R"(
gpu_memory 8MiB
occupy 1MiB
alloc b0 6144KiB
alloc b1 64KiB
host_write b0
host_write b1
kernel k6 read b0 rw b1 read b0
sync
)",
                     BugInjection::kDropEvictedCpuCopy);
    ASSERT_EQ(res.outcome, Outcome::kDivergence) << res.message;
    EXPECT_NE(res.report.find("\"kind\":\"content\""), std::string::npos)
        << res.report;
    EXPECT_NE(res.message.find("page 1099511627776 (generation 1)"),
              std::string::npos)
        << res.message;
}

TEST_F(VerifyTest, DivergenceReportCarriesContext)
{
    VerifyResult res = runWithBug(R"(
alloc a 2MiB
kernel k write a compute 10us
discard a eager
sync
)",
                                  BugInjection::kSilentDirtyBitChange);
    ASSERT_EQ(res.outcome, Outcome::kDivergence);
    // The report is a JSON artifact naming the op and carrying a full
    // driver-state snapshot for offline diffing.
    EXPECT_NE(res.report.find("\"kind\":\"mirror-discarded\""),
              std::string::npos)
        << res.report;
    EXPECT_NE(res.report.find("\"text\":\"discard a eager\""),
              std::string::npos)
        << res.report;
    // The detail names the block and both sides' page runs.
    EXPECT_NE(res.report.find("\"detail\":\"block 1099511627776: driver "
                              "discarded [0-511] != mirror []\""),
              std::string::npos)
        << res.report;
    EXPECT_NE(res.report.find("\"snapshot\""), std::string::npos);
}

TEST_F(VerifyTest, OutcomesMapToDocumentedExitCodes)
{
    EXPECT_EQ(exitCode(Outcome::kOk), 0);
    EXPECT_EQ(exitCode(Outcome::kParseError), 2);
    EXPECT_EQ(exitCode(Outcome::kRuntimeError), 3);
    EXPECT_EQ(exitCode(Outcome::kDivergence), 4);
    EXPECT_EQ(exitCode(Outcome::kWatchdog), 5);
    EXPECT_EQ(exitCode(Outcome::kWatchdog), WatchdogError::kExitCode);
}

TEST(ProgressMonitorTest, TripsOnFrozenSimClock)
{
    ProgressMonitor::Limits limits;
    limits.max_stalled_steps = 10;
    ProgressMonitor mon(limits);
    // The first call establishes the phase; the limit then allows 10
    // stalled repeats before the next one is fatal.
    for (int i = 0; i < 11; ++i)
        mon.onStep("evict", 42);
    EXPECT_THROW(mon.onStep("evict", 42), WatchdogError);
}

TEST(ProgressMonitorTest, AdvancingClockResetsTheStallCounter)
{
    ProgressMonitor::Limits limits;
    limits.max_stalled_steps = 10;
    ProgressMonitor mon(limits);
    for (int i = 0; i < 1000; ++i)
        mon.onStep("evict", /*now=*/i);  // clock moves: never stalls
    EXPECT_EQ(mon.totalSteps(), 1000u);
}

TEST(ProgressMonitorTest, PhaseChangeResetsTheStallCounter)
{
    ProgressMonitor::Limits limits;
    limits.max_stalled_steps = 10;
    ProgressMonitor mon(limits);
    for (int i = 0; i < 11; ++i)
        mon.onStep("evict", 42);
    for (int i = 0; i < 11; ++i)
        mon.onStep("alloc", 42);  // new phase, fresh budget
    EXPECT_THROW(mon.onStep("alloc", 42), WatchdogError);
}

TEST(ProgressMonitorTest, TotalStepBudgetIsABackstop)
{
    ProgressMonitor::Limits limits;
    limits.max_stalled_steps = 5;
    limits.max_total_steps = 100;
    ProgressMonitor mon(limits);
    EXPECT_THROW(
        {
            for (int i = 0; i < 200; ++i)
                mon.onStep("walk", /*now=*/i);  // progresses forever
        },
        WatchdogError);
}

using std::chrono::milliseconds;
using std::chrono::nanoseconds;
using std::chrono::seconds;

TEST(WatchdogTest, DisarmCancelsTheDeadline)
{
    Watchdog dog;
    dog.arm(milliseconds(50), "short job");
    dog.disarm();
    // Long past the deadline: the process is still here.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    dog.arm(milliseconds(10000), "re-armed");
    dog.disarm();
    SUCCEED();
}

// runVerifiedScenario's order: the harness default, then the
// script's `deadline` directive replaces it.
TEST(WatchdogTest, RearmingReplacesTheDeadline)
{
    Watchdog dog;
    dog.arm(milliseconds(20), "default budget");
    dog.arm(seconds(10), "deadline directive");
    std::this_thread::sleep_for(milliseconds(100));
    dog.disarm();
    SUCCEED();
}

TEST(WatchdogTest, DestroyingAnArmedWatchdogCancelsIt)
{
    {
        Watchdog dog;
        dog.arm(milliseconds(20), "abandoned job");
    }
    std::this_thread::sleep_for(milliseconds(100));
    SUCCEED();
}

// gtest runs the DeathTest suites first, so these fork from a process
// that has no Watchdog yet; ExpiryInAChildOfAProcessWithATimer forks
// from one that holds an armed timer.
TEST(WatchdogDeathTest, ExpiryExitsWithTheWatchdogCode)
{
    EXPECT_EXIT(
        {
            Watchdog dog;
            dog.arm(milliseconds(20), "hung scenario");
            std::this_thread::sleep_for(std::chrono::seconds(30));
        },
        ::testing::ExitedWithCode(WatchdogError::kExitCode),
        "watchdog");
}

TEST(WatchdogDeathTest, TwoWatchdogsKeepSeparateDeadlines)
{
    EXPECT_EXIT(
        {
            Watchdog slow;
            Watchdog fast;
            slow.arm(seconds(10), "slow job");
            fast.arm(milliseconds(20), "fast job");
            std::this_thread::sleep_for(seconds(30));
        },
        ::testing::ExitedWithCode(WatchdogError::kExitCode),
        "deadline expired for fast job;");
}

TEST(WatchdogDeathTest, ZeroLengthArmExpiresAtOnce)
{
    EXPECT_EXIT(
        {
            Watchdog dog;
            dog.arm(nanoseconds(0), "zero budget");
            std::this_thread::sleep_for(seconds(30));
        },
        ::testing::ExitedWithCode(WatchdogError::kExitCode),
        "expired for zero budget;");
}

// A sub-millisecond `deadline` arms at its own resolution and never
// rounds down to a zero timer, which would disarm the watchdog.
TEST(WatchdogDeathTest, SubMillisecondDeadlineDirectiveExpires)
{
    EXPECT_EXIT(
        {
            VerifyOptions opts;
            opts.label = "sub-ms script";
            runVerifiedScenario(R"(
deadline 1us
gpu_memory 16MiB
alloc a 4MiB
kernel writer write a compute 100us
host_read a
)",
                                opts);
            std::this_thread::sleep_for(seconds(30));
        },
        ::testing::ExitedWithCode(WatchdogError::kExitCode),
        "expired for sub-ms script;");
}

TEST(WatchdogDeathTest, ExpiryInAChildOfAProcessWithATimer)
{
    Watchdog parent;
    parent.arm(seconds(30), "parent process");
    EXPECT_EXIT(
        {
            Watchdog dog;
            dog.arm(milliseconds(20), "forked child");
            std::this_thread::sleep_for(seconds(30));
        },
        ::testing::ExitedWithCode(WatchdogError::kExitCode),
        "expired for forked child;");
    parent.disarm();
}

// The scenario DSL drives one GPU; peer moves and peer skips reach the
// G6 ledger checks through the Runtime directly.
TEST_F(VerifyTest, LedgerReconcilesPeerMovesAndSkips)
{
    uvm::UvmConfig cfg;
    cfg.gpu_memory = 8 * mem::kBigPageSize;
    cfg.num_gpus = 2;
    cfg.backed = true;
    cuda::Runtime rt(cfg, interconnect::LinkSpec::pcie4());
    Oracle oracle;
    oracle.attachRuntime(rt);
    rt.driver().setObserver(&oracle);
    const sim::Bytes size = 2 * mem::kBigPageSize;
    mem::VirtAddr a = rt.mallocManaged(size, "a");
    rt.hostTouch(a, size, uvm::AccessKind::kWrite);
    rt.prefetchAsync(a, size, uvm::ProcessorId::gpu(0));
    rt.discardAsync(a, mem::kBigPageSize, uvm::DiscardMode::kEager);
    rt.prefetchAsync(a, size, uvm::ProcessorId::gpu(1));
    rt.synchronize();
    ASSERT_EQ(rt.driver().vaSpace().blockOf(a + mem::kBigPageSize)->owner_gpu,
              1);
    const std::uint64_t before = oracle.checksRun();
    EXPECT_NO_THROW(oracle.finalCheck(rt));
    EXPECT_GE(oracle.checksRun(), before + 4);
    // The live block moved over the peer fabric, the discarded one
    // was skipped.
    EXPECT_EQ(rt.driver().counter(uvm::UvmStat::bytes_d2d),
              mem::kBigPageSize);
    EXPECT_EQ(rt.driver().counter(uvm::UvmStat::saved_d2d_bytes),
              mem::kBigPageSize);
}

// A divergence artifact carries every field VaBlock::hashState treats
// as future-shaping, the memAdvise hints included, and the driver's
// stats dump.
TEST(Snapshot, AdvisedBlockCarriesItsHintsAndOrdinal)
{
    using mem::kBigPageSize;
    using uvm::AccessKind;
    uvm::UvmConfig cfg;
    cfg.gpu_memory = 4 * kBigPageSize;
    uvm::UvmDriver drv(cfg, interconnect::LinkSpec::pcie4());
    sim::SimTime t = 0;
    mem::VirtAddr x = drv.allocManaged(kBigPageSize, "x");
    mem::VirtAddr y = drv.allocManaged(kBigPageSize, "y");
    t = drv.prefetch(x, kBigPageSize, uvm::ProcessorId::gpu(0), t);
    t = drv.prefetch(y, kBigPageSize, uvm::ProcessorId::gpu(0), t);
    mem::VirtAddr a = drv.allocManaged(kBigPageSize, "a");
    t = drv.hostAccess(a, kBigPageSize, AccessKind::kWrite, t);
    drv.memAdvise(a, kBigPageSize, uvm::MemAdvise::kSetAccessedBy, 0);
    drv.memAdvise(a, kBigPageSize,
                  uvm::MemAdvise::kSetPreferredLocationCpu);
    drv.gpuAccess(0, {{a, kBigPageSize, AccessKind::kRead}}, t);

    const uvm::VaBlock &advised = *drv.vaSpace().blockOf(a);
    ASSERT_EQ(advised.remote_mapped, 1u);
    std::ostringstream os;
    dumpBlockJson(os, advised);
    EXPECT_NE(os.str().find("\"accessed_by\":1,\"prefer_cpu\":true,"
                            "\"remote_mapped\":1,"),
              std::string::npos)
        << os.str();

    const uvm::VaBlock &second = *drv.vaSpace().blockOf(y);
    ASSERT_GT(second.alloc_ordinal, 0u);
    os.str("");
    dumpBlockJson(os, second);
    EXPECT_NE(os.str().find("\"accessed_by\":0,\"prefer_cpu\":false,"
                            "\"remote_mapped\":0,\"alloc_ordinal\":" +
                            std::to_string(second.alloc_ordinal) + ","),
              std::string::npos)
        << os.str();

    // The snapshot embeds dumpStatsJson whole: the per-GPU chunk and
    // queue object is written in one place.
    std::ostringstream state, stats;
    dumpDriverStateJson(state, drv);
    drv.dumpStatsJson(stats);
    EXPECT_NE(state.str().find("],\"stats\":" + stats.str() + "}"),
              std::string::npos)
        << state.str();
    EXPECT_NE(stats.str().find("\"chunks\":{\"total\":4,\"allocated\":2,"),
              std::string::npos)
        << stats.str();
}

}  // namespace
}  // namespace uvmd::verify
