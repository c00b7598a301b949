/**
 * @file
 * Unit tests for the simulation substrate: timeline resources, counter
 * tables, PRNG determinism, and time/byte formatting.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "sim/fault_injector.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "uvm/driver.hpp"

namespace uvmd::sim {
namespace {

TEST(Resource, ReservesSequentially)
{
    Resource r("engine");
    EXPECT_EQ(r.reserve(0, 100), 100);
    EXPECT_EQ(r.reserve(0, 50), 150);   // queued behind first span
    EXPECT_EQ(r.reserve(200, 10), 210); // idle gap honoured
    EXPECT_EQ(r.busyTime(), 160);
}

TEST(Resource, ResetClearsTimeline)
{
    Resource r("engine");
    r.reserve(0, 100);
    r.reset();
    EXPECT_EQ(r.freeAt(), 0);
    EXPECT_EQ(r.busyTime(), 0);
    EXPECT_EQ(r.reserve(5, 10), 15);
}

// ----------------------------------------------------------------
// Counter tables
// ----------------------------------------------------------------

std::size_t
countOf(const std::string &haystack, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = haystack.find(needle); at != std::string::npos;
         at = haystack.find(needle, at + 1))
        ++n;
    return n;
}

/** Every row of @p g is on exactly one "prefix+name value" line of the
 *  text dump @p text, with its current value. */
void
expectRowsDumpedOnce(const StatGroup &g, const std::string &text,
                     const std::string &prefix)
{
    const std::string lines = "\n" + text;
    for (std::size_t i = 0; i < g.names().size(); ++i) {
        const std::string key =
            "\n" + prefix + std::string(g.names()[i]) + " ";
        EXPECT_EQ(countOf(lines, key), 1u) << key;
        EXPECT_EQ(countOf(lines, key + std::to_string(g.values()[i]) +
                                     "\n"),
                  1u)
            << key;
    }
}

/** Every row of @p g is exactly once in its JSON object, with its
 *  value, and that object follows @p key in the JSON dump @p json. */
void
expectRowsInJsonOnce(const StatGroup &g, const std::string &json,
                     const std::string &key)
{
    std::ostringstream os;
    g.dumpJson(os);
    const std::string obj = os.str();
    for (std::size_t i = 0; i < g.names().size(); ++i) {
        const std::string member =
            "\"" + std::string(g.names()[i]) + "\":";
        const std::string v = std::to_string(g.values()[i]);
        EXPECT_EQ(countOf(obj, member), 1u) << member;
        EXPECT_EQ(countOf(obj, member + v + ",") +
                      countOf(obj, member + v + "}"),
                  1u)
            << member;
    }
    EXPECT_EQ(countOf(json, key + obj), 1u) << key << obj;
}

/** A driver with every fault kind armed, after some traffic. */
struct BusyDriver {
    uvm::UvmDriver drv{config(), interconnect::LinkSpec::pcie4()};

    static uvm::UvmConfig
    config()
    {
        uvm::UvmConfig cfg;
        cfg.gpu_memory = 8 * mem::kBigPageSize;
        cfg.faults.enabled = true;
        cfg.faults.dma_fault_rate = 0.3;
        cfg.faults.dma_max_retries = 16;
        cfg.faults.chunk_retire_rate = 0.2;
        cfg.faults.oom_remote_fallback = true;
        return cfg;
    }

    BusyDriver()
    {
        const sim::Bytes size = 3 * mem::kBigPageSize;
        SimTime t = 0;
        mem::VirtAddr a = drv.allocManaged(size, "a");
        t = drv.hostAccess(a, size, uvm::AccessKind::kWrite, t);
        t = drv.prefetch(a, size, uvm::ProcessorId::gpu(0), t);
        t = drv.discard(a, size, uvm::DiscardMode::kEager, t);
        drv.hostAccess(a, size, uvm::AccessKind::kRead, t);
    }
};

TEST(StatTable, DriverDumpsListEveryRowOnceWithItsValue)
{
    BusyDriver busy;
    uvm::UvmDriver &drv = busy.drv;
    ASSERT_GT(drv.counters().get("prefetch_calls"), 0u);
    std::ostringstream text, json;
    drv.dumpStats(text);
    drv.dumpStatsJson(json);

    expectRowsDumpedOnce(drv.counters(), text.str(), "uvm.");
    expectRowsDumpedOnce(drv.link(0).stats(), text.str(), "gpu0.link.");
    expectRowsDumpedOnce(drv.allocator(0).stats(), text.str(),
                         "gpu0.alloc.");
    expectRowsDumpedOnce(drv.zeroEngine(0).stats(), text.str(),
                         "gpu0.zero.");
    expectRowsDumpedOnce(drv.peerLink().stats(), text.str(), "peer.");

    expectRowsInJsonOnce(drv.counters(), json.str(), "\"uvm\":");
    expectRowsInJsonOnce(drv.link(0).stats(), json.str(),
                         "[{\"link\":");
    expectRowsInJsonOnce(drv.allocator(0).stats(), json.str(),
                         "\"alloc\":");
    expectRowsInJsonOnce(drv.zeroEngine(0).stats(), json.str(),
                         "\"zero\":");
    expectRowsInJsonOnce(drv.peerLink().stats(), json.str(),
                         "\"peer\":{\"link\":");
}

TEST(StatTable, FaultTallyDumpsEveryRowOnceWithItsValue)
{
    FaultPlan plan;
    plan.enabled = true;
    plan.dma_fault_rate = 0.5;
    plan.alloc_fail_rate = 0.5;
    FaultInjector inj(plan);
    for (int i = 0; i < 20; ++i) {
        inj.dmaDescriptorFails();
        inj.allocFails();
    }
    inj.noteLinkEventApplied({0, 0, 0.5, 1, 0});
    ASSERT_GT(inj.tally().get("dma_faults"), 0u);
    std::ostringstream text, json;
    inj.tally().dump(text, "fault.");
    inj.tally().dumpJson(json);
    expectRowsDumpedOnce(inj.tally(), text.str(), "fault.");
    expectRowsInJsonOnce(inj.tally(), json.str(), "");
}

void
expectUniqueNames(std::span<const std::string_view> names)
{
    const std::set<std::string_view> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());
}

TEST(StatTable, RowNamesAreUniqueWithinAGroup)
{
    expectUniqueNames(uvm::UvmStatNames);
    expectUniqueNames(interconnect::LinkStatNames);
    expectUniqueNames(mem::AllocStatNames);
    expectUniqueNames(mem::ZeroStatNames);
    expectUniqueNames(FaultStatNames);
}

template <typename Id, const auto &Names>
void
expectResetZeroesEveryRow(StatTable<Id, Names> t)
{
    for (std::size_t i = 0; i < std::size(Names); ++i)
        t[static_cast<Id>(i)] = i + 1;
    for (std::uint64_t v : t.group().values())
        EXPECT_NE(v, 0u);
    t.reset();
    for (std::uint64_t v : t.group().values())
        EXPECT_EQ(v, 0u);
}

TEST(StatTable, ResetZeroesEveryRow)
{
    expectResetZeroesEveryRow(uvm::UvmStats{});
    expectResetZeroesEveryRow(interconnect::LinkStats{});
    expectResetZeroesEveryRow(mem::AllocStats{});
    expectResetZeroesEveryRow(mem::ZeroStats{});
    expectResetZeroesEveryRow(FaultStats{});
}

TEST(StatTable, PerCauseRowsFollowTransferCauseOrder)
{
    using uvm::UvmStat;
    for (int c = 0; c < 4; ++c) {
        const auto cause = static_cast<uvm::TransferCause>(c);
        const std::string suffix = std::string(".") + toString(cause);
        for (UvmStat first :
             {UvmStat::bytes_h2d_prefetch, UvmStat::bytes_d2h_prefetch,
              UvmStat::transfer_retries_prefetch}) {
            const std::string_view base =
                uvm::UvmStatNames[static_cast<std::size_t>(first)];
            EXPECT_EQ(uvm::UvmStatNames[static_cast<std::size_t>(
                          uvm::byCause(first, cause))],
                      std::string(base.substr(0, base.find('.'))) +
                          suffix);
        }
    }
}

TEST(StatTableDeathTest, GetOfAnUndeclaredNamePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // zero_bytes is a row of each GPU's zero engine, not of the
    // driver's own table.
    uvm::UvmDriver drv(uvm::UvmConfig{}, interconnect::LinkSpec::pcie4());
    EXPECT_DEATH(drv.counters().get("zero_bytes"),
                 "no counter named 'zero_bytes'");
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123), c(124);
    bool all_equal = true;
    bool any_differ_from_c = false;
    for (int i = 0; i < 100; ++i) {
        auto va = a.next();
        if (va != b.next())
            all_equal = false;
        if (va != c.next())
            any_differ_from_c = true;
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_differ_from_c);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformIsInUnitInterval)
{
    Rng r(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Time, UnitConversions)
{
    EXPECT_EQ(microseconds(1), 1000);
    EXPECT_EQ(milliseconds(1), 1'000'000);
    EXPECT_EQ(seconds(1), 1'000'000'000);
    EXPECT_DOUBLE_EQ(toSeconds(seconds(2.5)), 2.5);
}

TEST(Time, TransferTimeMatchesBandwidth)
{
    // 25 GB/s: 25e9 bytes take one second.
    EXPECT_EQ(transferTime(25'000'000'000ULL, 25.0), seconds(1));
    EXPECT_EQ(transferTime(0, 25.0), 0);
}

TEST(Time, Formatting)
{
    EXPECT_EQ(formatDuration(500), "500 ns");
    EXPECT_EQ(formatDuration(microseconds(42)), "42.00 us");
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(3 * kGiB), "3072.0 MiB");
    EXPECT_EQ(formatBytes(64 * kGiB), "64.00 GiB");
}

TEST(Logging, FatalThrowsAndPanicDoesNot)
{
    EXPECT_THROW(fatal("user error"), FatalError);
    resetWarnCount();
    setLogLevel(LogLevel::kQuiet);
    warn("quiet warning");
    EXPECT_EQ(warnCount(), 1u);
    setLogLevel(LogLevel::kNormal);
}

}  // namespace
}  // namespace uvmd::sim
