/**
 * @file
 * Tests for the verification harness (src/verify): the differential
 * oracle catches each deliberate driver mutation, clean scenarios
 * pass with checks actually executed, outcomes map to the documented
 * exit codes, and both watchdog levels trip on schedule.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

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
    // Exact, so a check that stops being evaluated or counted shows.
    EXPECT_EQ(res.checks, 123u);
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

TEST(WatchdogTest, DisarmCancelsTheDeadline)
{
    Watchdog dog;
    dog.arm(50, "short job");
    dog.disarm();
    // Long past the deadline: the process is still here.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    dog.arm(10000, "re-armed");
    dog.disarm();
    SUCCEED();
}

TEST(WatchdogDeathTest, ExpiryExitsWithTheWatchdogCode)
{
    EXPECT_EXIT(
        {
            Watchdog dog;
            dog.arm(20, "hung scenario");
            std::this_thread::sleep_for(std::chrono::seconds(30));
        },
        ::testing::ExitedWithCode(WatchdogError::kExitCode),
        "watchdog");
}

}  // namespace
}  // namespace uvmd::verify
