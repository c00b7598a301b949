/**
 * @file
 * Tests for the trace tooling beyond the auditor: the report table
 * formatter, the transfer log, and the log sharing a driver with
 * other observers through uvm::ObserverMux.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "test_util.hpp"
#include "trace/auditor.hpp"
#include "trace/report.hpp"
#include "trace/transfer_log.hpp"
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

    uvm::UvmDriver drv_;
    TransferLog log_;
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
    drv_.freeManaged(a);

    ASSERT_EQ(log_.size(), 3u);
    EXPECT_EQ(log_.entry(0).event, TransferLog::Event::kTransfer);
    EXPECT_EQ(log_.entry(0).dir,
              interconnect::Direction::kHostToDevice);
    EXPECT_EQ(log_.entry(0).cause, uvm::TransferCause::kPrefetch);
    EXPECT_EQ(log_.entry(0).pages, 512u);
    EXPECT_EQ(log_.entry(1).event, TransferLog::Event::kDiscard);
    EXPECT_EQ(log_.entry(2).event, TransferLog::Event::kFree);
    // Ordinals are strictly increasing.
    EXPECT_LT(log_.entry(0).ordinal, log_.entry(1).ordinal);
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
    for (const auto &e : log_.entriesFor(a)) {
        if (e.event == TransferLog::Event::kSkipped) {
            saw_skip = true;
            EXPECT_EQ(e.dir, interconnect::Direction::kDeviceToHost);
        }
    }
    EXPECT_TRUE(saw_skip);
    // entriesFor(b) must not contain a's events.
    for (const auto &e : log_.entriesFor(b))
        EXPECT_EQ(e.block_base, b);
}

TEST_F(TraceLogTest, MuxFeedsAllObservers)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    t_ = drv_.gpuAccess(0, {{a, kBigPageSize, AccessKind::kRead}}, t_);
    // Both observers saw the same transfer.
    EXPECT_EQ(log_.size(), 1u);
    EXPECT_EQ(auditor_.requiredH2d(), kBigPageSize);
}

/** Counts the state-machine hooks the transfer log ignores. */
struct StateHookCounter : uvm::TransferObserver {
    void onTransfer(const uvm::VaBlock &, const uvm::PageMask &,
                    interconnect::Direction, uvm::TransferCause) override
    {}
    void onTransferSkipped(const uvm::VaBlock &, const uvm::PageMask &,
                           interconnect::Direction,
                           uvm::TransferCause) override
    {}
    void onAccess(const uvm::VaBlock &, const uvm::PageMask &, bool,
                  bool, ProcessorId) override
    {}
    void onDiscard(const uvm::VaBlock &, const uvm::PageMask &) override
    {}
    void onFree(const uvm::VaBlock &, const uvm::PageMask &) override {}
    void onMap(const uvm::VaBlock &, const uvm::PageMask &,
               ProcessorId) override
    {
        ++maps;
    }
    void onUnmap(const uvm::VaBlock &, const uvm::PageMask &,
                 ProcessorId) override
    {
        ++unmaps;
    }
    void onDiscardStateChange(const uvm::VaBlock &, const uvm::PageMask &,
                              bool) override
    {
        ++discard_state_changes;
    }
    void onQueueMove(const uvm::VaBlock &, mem::QueueKind,
                     mem::QueueKind) override
    {
        ++queue_moves;
    }

    int maps = 0;
    int unmaps = 0;
    int discard_state_changes = 0;
    int queue_moves = 0;
};

TEST_F(TraceLogTest, MuxForwardsStateMachineHooks)
{
    // An oracle riding beside the log must see the mapping, discard
    // state and queue events too, not only the transfers.
    StateHookCounter counter;
    mux_.add(&counter);
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    t_ = drv_.discard(a, kBigPageSize, uvm::DiscardMode::kEager, t_);
    EXPECT_GT(counter.maps, 0);
    EXPECT_GT(counter.unmaps, 0);
    EXPECT_GT(counter.discard_state_changes, 0);
    EXPECT_GT(counter.queue_moves, 0);
    EXPECT_EQ(log_.size(), 2u);  // the prefetch and the discard
}

TEST_F(TraceLogTest, CsvDump)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize, "a");
    // Populate on the host first so the prefetch is a real transfer
    // (a never-touched block would just be zero-filled).
    t_ = drv_.hostAccess(a, kBigPageSize, AccessKind::kWrite, t_);
    t_ = drv_.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t_);
    std::string path = "/tmp/uvmd_log_test.csv";
    log_.writeCsv(path);
    std::ifstream in(path);
    std::string header, line;
    std::getline(in, header);
    EXPECT_EQ(header, "ordinal,event,block,pages,direction,cause");
    std::getline(in, line);
    EXPECT_NE(line.find("transfer"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceLogAccesses, OptInAccessLogging)
{
    uvm::UvmDriver drv(test::tinyConfig(2), test::testLink());
    TransferLog log(/*log_accesses=*/true);
    drv.setObserver(&log);
    mem::VirtAddr a = drv.allocManaged(kBigPageSize, "a");
    drv.hostAccess(a, kBigPageSize, AccessKind::kWrite, 0);
    bool saw_access = false;
    log.forEach([&](const TransferLog::Entry &e) {
        saw_access |= e.event == TransferLog::Event::kAccess;
    });
    EXPECT_TRUE(saw_access);
}

// The chunked store must behave exactly like the flat vector it
// replaced: ordered entries across chunk boundaries, and chunk reuse
// after clear().
TEST(TraceLogChunks, SpansChunksAndSurvivesClear)
{
    TransferLog log;
    const std::size_t n = TransferLog::kChunkEntries * 2 + 37;
    for (std::size_t i = 0; i < n; ++i) {
        log.onFault(uvm::FaultEvent::kDmaFault,
                    mem::VirtAddr{i * mem::kBigPageSize}, 1);
    }
    ASSERT_EQ(log.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(log.entry(i).ordinal, i);
        EXPECT_EQ(log.entry(i).block_base, i * mem::kBigPageSize);
    }
    std::size_t visited = 0;
    log.forEach([&](const TransferLog::Entry &e) {
        EXPECT_EQ(e.ordinal, visited);
        ++visited;
    });
    EXPECT_EQ(visited, n);

    log.clear();
    EXPECT_EQ(log.size(), 0u);
    log.onFault(uvm::FaultEvent::kDmaFault, 0, 1);
    ASSERT_EQ(log.size(), 1u);
    // Ordinals keep counting across clear(), as before.
    EXPECT_EQ(log.entry(0).ordinal, n);
}

}  // namespace
}  // namespace uvmd::trace
