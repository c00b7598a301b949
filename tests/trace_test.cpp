/**
 * @file
 * Tests for the trace tooling beyond the auditor: the report table
 * formatter, and the driver's event sequence as seen by observers
 * sharing a driver through uvm::ObserverMux.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "test_util.hpp"
#include "trace/auditor.hpp"
#include "trace/report.hpp"
#include "uvm/driver.hpp"

namespace uvmd::trace {
namespace {

using mem::kBigPageSize;
using uvm::AccessKind;
using uvm::ProcessorId;

TEST(Report, FmtHelpers)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(3.14159, 0), "3");
    EXPECT_EQ(fmtPair(1.0, 0.5), "1.00/0.50");
}

TEST(Report, CsvRoundTrip)
{
    Table t("test");
    t.header({"a", "b"});
    t.row({"1", "x"});
    t.row({"2", "y"});
    std::string path = "/tmp/uvmd_report_test.csv";
    t.writeCsv(path);
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,x");
    std::getline(in, line);
    EXPECT_EQ(line, "2,y");
    std::remove(path.c_str());
}

TEST(Report, CsvIntoMissingDirectoryIsFatal)
{
    Table t("test");
    t.header({"a"});
    t.row({"1"});
    const std::string path = "/nonexistent-uvmd-dir/table.csv";
    try {
        t.writeCsv(path);
        FAIL() << "writeCsv into a missing directory returned";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
    }
}

/** A driver watched by an event recorder and an auditor at once,
 *  through uvm::ObserverMux. */
class TraceLogTest : public ::testing::Test
{
  protected:
    TraceLogTest()
        : drv_(test::tinyConfig(/*chunks=*/2), test::testLink())
    {
        mux_.add(&log_);
        mux_.add(&auditor_);
        drv_.setObserver(&mux_);
    }

    /** The transfer-level events: transfers, skips, discards, frees
     *  and faults. */
    std::vector<test::EventRecorder::Event>
    transferEvents() const
    {
        return log_.only("TSDFX");
    }

    uvm::UvmDriver drv_;
    test::EventRecorder log_;
    Auditor auditor_;
    uvm::ObserverMux mux_;
    sim::SimTime t_ = 0;
};

TEST_F(TraceLogTest, RecordsTransferSequence)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    t_ = drv_.discard(a, kBigPageSize, uvm::DiscardMode::kEager, t_);
    EXPECT_TRUE(drv_.tryFreeManaged(a));

    auto log = transferEvents();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0].kind, 'T');
    EXPECT_EQ(log[0].a, int(interconnect::Direction::kHostToDevice));
    EXPECT_EQ(log[0].b, int(uvm::TransferCause::kPrefetch));
    EXPECT_EQ(log[0].pages.count(), 512u);
    EXPECT_EQ(log[1].kind, 'D');
    EXPECT_EQ(log[2].kind, 'F');
}

TEST_F(TraceLogTest, RecordsSkipsAndFilters)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    mem::VirtAddr b = drv_.allocManaged(kBigPageSize, "b");
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    t_ = drv_.discard(a, kBigPageSize, uvm::DiscardMode::kEager, t_);
    // Pressure: b evicts a's discarded chunk (skip) plus its own
    // allocation.
    t_ = drv_.prefetch(b, 2 * kBigPageSize - kBigPageSize,
                       ProcessorId::gpu(0), t_);
    t_ = drv_.prefetch(b, kBigPageSize, ProcessorId::gpu(0), t_);
    mem::VirtAddr c = drv_.allocManaged(kBigPageSize, "c");
    t_ = drv_.prefetch(c, kBigPageSize, ProcessorId::gpu(0), t_);

    bool saw_skip = false;
    for (const auto &e : transferEvents()) {
        if (e.kind == 'S' && e.base == a) {
            saw_skip = true;
            EXPECT_EQ(e.a, int(interconnect::Direction::kDeviceToHost));
        }
    }
    EXPECT_TRUE(saw_skip);
}

TEST_F(TraceLogTest, MuxFeedsAllObservers)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    t_ = drv_.gpuAccess(0, {{a, kBigPageSize, AccessKind::kRead}}, t_);
    // Both observers saw the same transfer.
    EXPECT_EQ(transferEvents().size(), 1u);
    EXPECT_EQ(auditor_.requiredH2d(), kBigPageSize);
}

TEST_F(TraceLogTest, MuxForwardsStateMachineHooks)
{
    // An oracle riding beside the others must see the mapping,
    // discard state and queue events too, not only the transfers.
    test::EventRecorder third;
    mux_.add(&third);
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    t_ = drv_.discard(a, kBigPageSize, uvm::DiscardMode::kEager, t_);
    EXPECT_FALSE(third.only("M").empty());
    EXPECT_FALSE(third.only("U").empty());
    EXPECT_FALSE(third.only("C").empty());
    EXPECT_FALSE(third.only("Q").empty());
    // The fixture's recorder still sees the prefetch and the discard.
    EXPECT_EQ(transferEvents().size(), 2u);
}

}  // namespace
}  // namespace uvmd::trace
