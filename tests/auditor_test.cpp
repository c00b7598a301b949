/**
 * @file
 * Tests for the RMT auditor: value-lifetime classification of
 * transfers as required or redundant, driven directly, end-to-end
 * through the driver, and differentially against a brute-force
 * per-page reference on the fuzz corpus.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "cuda/runtime.hpp"
#include "sim/logging.hpp"
#include "test_util.hpp"
#include "trace/auditor.hpp"
#include "uvm/driver.hpp"
#include "verify/fuzzer.hpp"
#include "workloads/scenario.hpp"

namespace uvmd::trace {
namespace {

using interconnect::Direction;
using mem::kBigPageSize;
using uvm::AccessKind;
using uvm::PageMask;
using uvm::ProcessorId;
using uvm::TransferCause;
using uvm::VaBlock;

PageMask
fullMask()
{
    PageMask m;
    m.set();
    return m;
}

class AuditorUnitTest : public ::testing::Test
{
  protected:
    AuditorUnitTest()
    {
        range_.id = 1;
        range_.name = "unit";
        block_.base = (uvm::VaSpace::kFirstKey + 4) * kBigPageSize;
        block_.range = &range_;
        block_.setValid(fullMask());
    }

    uvm::VaRange range_{};
    VaBlock block_;
    Auditor auditor_;
};

TEST_F(AuditorUnitTest, TransferThenReadIsRequired)
{
    auditor_.onTransfer(block_, fullMask(),
                        Direction::kHostToDevice,
                        TransferCause::kPrefetch);
    auditor_.onAccess(block_, fullMask(), /*read=*/true,
                      /*write=*/false, ProcessorId::gpu(0));
    EXPECT_EQ(auditor_.requiredH2d(), kBigPageSize);
    EXPECT_EQ(auditor_.redundantTotal(), 0u);
    EXPECT_EQ(auditor_.openBytes(), 0u);
}

TEST_F(AuditorUnitTest, TransferThenOverwriteIsRedundant)
{
    auditor_.onTransfer(block_, fullMask(),
                        Direction::kHostToDevice,
                        TransferCause::kGpuFault);
    auditor_.onAccess(block_, fullMask(), /*read=*/false,
                      /*write=*/true, ProcessorId::gpu(0));
    EXPECT_EQ(auditor_.redundantH2d(), kBigPageSize);
    EXPECT_EQ(auditor_.requiredTotal(), 0u);
}

TEST_F(AuditorUnitTest, ReadWriteClosesAsRequired)
{
    auditor_.onTransfer(block_, fullMask(),
                        Direction::kDeviceToHost,
                        TransferCause::kEviction);
    auditor_.onAccess(block_, fullMask(), /*read=*/true,
                      /*write=*/true, ProcessorId::cpu());
    EXPECT_EQ(auditor_.requiredD2h(), kBigPageSize);
}

TEST_F(AuditorUnitTest, RoundTripThenReadMarksBothRequired)
{
    // Figure-2-like, but the data IS read after coming back: the
    // eviction and the return trip were both needed.
    auditor_.onTransfer(block_, fullMask(), Direction::kDeviceToHost,
                        TransferCause::kEviction);
    auditor_.onTransfer(block_, fullMask(), Direction::kHostToDevice,
                        TransferCause::kGpuFault);
    auditor_.onAccess(block_, fullMask(), true, false,
                      ProcessorId::gpu(0));
    EXPECT_EQ(auditor_.requiredD2h(), kBigPageSize);
    EXPECT_EQ(auditor_.requiredH2d(), kBigPageSize);
}

TEST_F(AuditorUnitTest, RoundTripThenOverwriteMarksBothRedundant)
{
    // Figure 2's RMT pattern: dead data swapped out and back, then
    // overwritten.
    auditor_.onTransfer(block_, fullMask(), Direction::kDeviceToHost,
                        TransferCause::kEviction);
    auditor_.onTransfer(block_, fullMask(), Direction::kHostToDevice,
                        TransferCause::kGpuFault);
    auditor_.onAccess(block_, fullMask(), false, true,
                      ProcessorId::gpu(0));
    EXPECT_EQ(auditor_.redundantD2h(), kBigPageSize);
    EXPECT_EQ(auditor_.redundantH2d(), kBigPageSize);
}

TEST_F(AuditorUnitTest, ReadClosesOnlyOpenTransfers)
{
    // Read, then a later transfer: the new transfer is open again.
    auditor_.onTransfer(block_, fullMask(), Direction::kDeviceToHost,
                        TransferCause::kEviction);
    auditor_.onAccess(block_, fullMask(), true, false,
                      ProcessorId::cpu());
    auditor_.onTransfer(block_, fullMask(), Direction::kHostToDevice,
                        TransferCause::kPrefetch);
    // The value is never read on the GPU and then dies.
    auditor_.onAccess(block_, fullMask(), false, true,
                      ProcessorId::gpu(0));
    EXPECT_EQ(auditor_.requiredD2h(), kBigPageSize);
    EXPECT_EQ(auditor_.redundantH2d(), kBigPageSize);
}

TEST_F(AuditorUnitTest, DiscardClosesAsRedundant)
{
    auditor_.onTransfer(block_, fullMask(), Direction::kDeviceToHost,
                        TransferCause::kEviction);
    auditor_.onDiscard(block_, fullMask());
    EXPECT_EQ(auditor_.redundantD2h(), kBigPageSize);
}

TEST_F(AuditorUnitTest, FreeClosesAsRedundant)
{
    auditor_.onTransfer(block_, fullMask(), Direction::kHostToDevice,
                        TransferCause::kPrefetch);
    auditor_.onFree(block_, fullMask());
    EXPECT_EQ(auditor_.redundantH2d(), kBigPageSize);
}

TEST_F(AuditorUnitTest, FinalizeClosesLeftoversAsRedundant)
{
    auditor_.onTransfer(block_, fullMask(), Direction::kHostToDevice,
                        TransferCause::kPrefetch);
    EXPECT_EQ(auditor_.openBytes(), kBigPageSize);
    auditor_.finalize();
    EXPECT_EQ(auditor_.openBytes(), 0u);
    EXPECT_EQ(auditor_.redundantH2d(), kBigPageSize);
}

// The run hook must classify exactly as one onAccess per block, over
// runs that start and end mid-word of the open-block bitmap and leave
// whole words empty.
TEST(AuditorRunTest, AccessRunMatchesPerBlockAccesses)
{
    uvm::VaRange range{};
    range.id = 1;
    std::vector<VaBlock> blocks(200);
    std::vector<VaBlock *> run;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        blocks[i].base = (uvm::VaSpace::kFirstKey + 60 + i) * kBigPageSize;
        blocks[i].range = &range;
        blocks[i].setValid(fullMask());
        run.push_back(&blocks[i]);
    }
    blocks.back().setValid(uvm::makeMask(0, 9));
    for (bool is_read : {true, false}) {
        Auditor per_block, whole;
        for (std::size_t i : {0u, 3u, 4u, 67u, 68u, 131u, 199u}) {
            for (Auditor *a : {&per_block, &whole}) {
                a->onTransfer(blocks[i], fullMask(),
                              Direction::kHostToDevice,
                              TransferCause::kPrefetch);
                a->onTransfer(blocks[i], uvm::makeMask(0, 3),
                              Direction::kDeviceToHost,
                              TransferCause::kEviction);
            }
        }
        // A run that starts and ends inside the transferred blocks.
        for (std::size_t i = 3; i < 132; ++i)
            per_block.onAccess(blocks[i], blocks[i].valid, is_read,
                               !is_read, ProcessorId::gpu(0));
        whole.onAccessRun(run.data() + 3, 129, is_read, !is_read,
                          ProcessorId::gpu(0));
        EXPECT_EQ(whole.requiredTotal(), per_block.requiredTotal());
        EXPECT_EQ(whole.redundantTotal(), per_block.redundantTotal());
        EXPECT_EQ(whole.openBytes(), per_block.openBytes());
        EXPECT_GT(whole.openBytes(), 0u);
        // Then all 200: blocks 0 and 199 close too (199 only over
        // its ten valid pages).
        whole.onAccessRun(run.data(), run.size(), is_read, !is_read,
                          ProcessorId::gpu(0));
        for (VaBlock *b : run)
            per_block.onAccess(*b, b->valid, is_read, !is_read,
                               ProcessorId::gpu(0));
        EXPECT_EQ(whole.requiredTotal(), per_block.requiredTotal());
        EXPECT_EQ(whole.redundantTotal(), per_block.redundantTotal());
        EXPECT_EQ(whole.openBytes(), per_block.openBytes());
        // The range is booked the same: one dead cycle per block
        // closed with bytes.
        EXPECT_EQ(whole.ranges()[1].wasted_bytes,
                  per_block.ranges()[1].wasted_bytes);
        EXPECT_EQ(whole.ranges()[1].dead_cycles,
                  per_block.ranges()[1].dead_cycles);
        EXPECT_EQ(whole.ranges()[1].dead_cycles, is_read ? 0u : 7u);
    }
}

// The open-block bitmap starts at the first managed block: a run from
// there uses bit 0 of word 0 and crosses into word 1.
TEST(AuditorRunTest, AccessRunFromTheFirstManagedBlock)
{
    uvm::VaRange range{};
    range.id = 1;
    std::vector<VaBlock> blocks(70);
    std::vector<VaBlock *> run;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        blocks[i].base = (uvm::VaSpace::kFirstKey + i) * kBigPageSize;
        blocks[i].range = &range;
        blocks[i].setValid(fullMask());
        run.push_back(&blocks[i]);
    }
    for (bool is_read : {true, false}) {
        Auditor per_block, whole;
        for (std::size_t i : {0u, 1u, 63u, 64u, 69u}) {
            for (Auditor *a : {&per_block, &whole})
                a->onTransfer(blocks[i], fullMask(),
                              Direction::kHostToDevice,
                              TransferCause::kPrefetch);
        }
        // Block 0 alone first, then the whole run.
        per_block.onAccess(blocks[0], blocks[0].valid, is_read,
                           !is_read, ProcessorId::gpu(0));
        whole.onAccessRun(run.data(), 1, is_read, !is_read,
                          ProcessorId::gpu(0));
        EXPECT_EQ(whole.openBytes(), 4 * kBigPageSize);
        EXPECT_EQ(whole.openBytes(), per_block.openBytes());
        for (VaBlock *b : run)
            per_block.onAccess(*b, b->valid, is_read, !is_read,
                               ProcessorId::gpu(0));
        whole.onAccessRun(run.data(), run.size(), is_read, !is_read,
                          ProcessorId::gpu(0));
        EXPECT_EQ(whole.openBytes(), 0u);
        EXPECT_EQ(whole.requiredTotal(), per_block.requiredTotal());
        EXPECT_EQ(whole.redundantTotal(), per_block.redundantTotal());
        EXPECT_EQ(is_read ? whole.requiredTotal() : whole.redundantTotal(),
                  5 * kBigPageSize);
    }
}

TEST_F(AuditorUnitTest, SkippedTransfersAreCountedSeparately)
{
    auditor_.onTransferSkipped(block_, fullMask(),
                               Direction::kDeviceToHost,
                               TransferCause::kEviction);
    ASSERT_GT(auditor_.ranges().size(), block_.range->id);
    EXPECT_EQ(auditor_.ranges()[block_.range->id].already_skipped,
              kBigPageSize);
    EXPECT_EQ(auditor_.totalTransferred(), 0u);
}

TEST_F(AuditorUnitTest, PartialMasksCountPartialBytes)
{
    PageMask half;
    for (int i = 0; i < 256; ++i)
        half.set(i);
    auditor_.onTransfer(block_, half, Direction::kHostToDevice,
                        TransferCause::kPrefetch);
    auditor_.onAccess(block_, fullMask(), true, false,
                      ProcessorId::gpu(0));
    EXPECT_EQ(auditor_.requiredH2d(), kBigPageSize / 2);
}

// The per-page open counts are bit-sliced into planes (plane i holds
// bit i of each count).  These tests drive counts across many planes.

TEST_F(AuditorUnitTest, SeventyThousandTransfersOfOnePageThenRead)
{
    // 70,000 > 2^16: the count needs 17 planes.
    PageMask one;
    one.set(7);
    const std::uint64_t n = 70'000;
    for (std::uint64_t i = 0; i < n; ++i) {
        auditor_.onTransfer(block_, one, Direction::kHostToDevice,
                            TransferCause::kGpuFault);
    }
    EXPECT_EQ(auditor_.openBytes(), n * mem::kSmallPageSize);
    auditor_.onAccess(block_, one, /*read=*/true, /*write=*/false,
                      ProcessorId::gpu(0));
    EXPECT_EQ(auditor_.requiredH2d(), n * mem::kSmallPageSize);
    EXPECT_EQ(auditor_.redundantTotal(), 0u);
    EXPECT_EQ(auditor_.openBytes(), 0u);

    // The counts restart from zero after the close.
    auditor_.onTransfer(block_, one, Direction::kHostToDevice,
                        TransferCause::kGpuFault);
    auditor_.onAccess(block_, one, /*read=*/false, /*write=*/true,
                      ProcessorId::gpu(0));
    EXPECT_EQ(auditor_.redundantH2d(), mem::kSmallPageSize);
}

TEST_F(AuditorUnitTest, PartialClosesAcrossPlanes)
{
    // Page p gets counts[p] open H2D transfers: 1, 2, 3, 5 and 8 set
    // different combinations of the four planes.
    const std::uint32_t counts[] = {1, 2, 3, 5, 8};
    const std::uint32_t n_pages = 5;
    for (std::uint32_t round = 1; round <= 8; ++round) {
        PageMask m;
        for (std::uint32_t p = 0; p < n_pages; ++p) {
            if (counts[p] >= round)
                m.set(p);
        }
        auditor_.onTransfer(block_, m, Direction::kHostToDevice,
                            TransferCause::kEviction);
    }
    EXPECT_EQ(auditor_.openBytes(), 19 * mem::kSmallPageSize);

    // Read pages 1 and 3: counts 2 + 5.
    PageMask read;
    read.set(1);
    read.set(3);
    auditor_.onAccess(block_, read, true, false, ProcessorId::gpu(0));
    EXPECT_EQ(auditor_.requiredH2d(), 7 * mem::kSmallPageSize);
    EXPECT_EQ(auditor_.openBytes(), 12 * mem::kSmallPageSize);

    // Closing them again finds nothing open.
    auditor_.onAccess(block_, read, true, false, ProcessorId::gpu(0));
    EXPECT_EQ(auditor_.requiredH2d(), 7 * mem::kSmallPageSize);

    // One more transfer of page 3 and page 4 (8 -> 9), then overwrite
    // pages 3 and 4 only: 1 + 9.
    PageMask more;
    more.set(3);
    more.set(4);
    auditor_.onTransfer(block_, more, Direction::kHostToDevice,
                        TransferCause::kGpuFault);
    auditor_.onAccess(block_, more, false, true, ProcessorId::gpu(0));
    EXPECT_EQ(auditor_.redundantH2d(), 10 * mem::kSmallPageSize);

    // Pages 0 and 2 (1 + 3) are still open; a discard of the whole
    // block closes them.
    EXPECT_EQ(auditor_.openBytes(), 4 * mem::kSmallPageSize);
    auditor_.onDiscard(block_, fullMask());
    EXPECT_EQ(auditor_.redundantH2d(), 14 * mem::kSmallPageSize);
    EXPECT_EQ(auditor_.openBytes(), 0u);
    EXPECT_EQ(auditor_.totalTransferred(), 21 * mem::kSmallPageSize);
}

TEST_F(AuditorUnitTest, OpenBytesAndFinalizeAfterInterleavedDirections)
{
    // Page 0 goes out and back three times; page 1 only ever moves
    // to the device; the rest of the block moves once each way.
    PageMask p0;
    p0.set(0);
    PageMask p1;
    p1.set(1);
    PageMask rest = fullMask();
    rest.reset(0);
    rest.reset(1);
    for (int i = 0; i < 3; ++i) {
        auditor_.onTransfer(block_, p0, Direction::kDeviceToHost,
                            TransferCause::kEviction);
        auditor_.onTransfer(block_, p0 | p1, Direction::kHostToDevice,
                            TransferCause::kGpuFault);
    }
    auditor_.onTransfer(block_, rest, Direction::kDeviceToHost,
                        TransferCause::kEviction);
    auditor_.onTransfer(block_, rest, Direction::kHostToDevice,
                        TransferCause::kPrefetch);

    const sim::Bytes page = mem::kSmallPageSize;
    const sim::Bytes rest_bytes = rest.count() * page;
    EXPECT_EQ(auditor_.openBytes(), 9 * page + 2 * rest_bytes);

    // Reading page 1 closes only its three H2D transfers.
    auditor_.onAccess(block_, p1, true, false, ProcessorId::gpu(0));
    EXPECT_EQ(auditor_.requiredH2d(), 3 * page);
    EXPECT_EQ(auditor_.requiredD2h(), 0u);
    EXPECT_EQ(auditor_.openBytes(), 6 * page + 2 * rest_bytes);

    auditor_.finalize();
    EXPECT_EQ(auditor_.openBytes(), 0u);
    EXPECT_EQ(auditor_.redundantH2d(), 3 * page + rest_bytes);
    EXPECT_EQ(auditor_.redundantD2h(), 3 * page + rest_bytes);
    EXPECT_EQ(auditor_.totalTransferred(), 9 * page + 2 * rest_bytes);

    // finalize() is idempotent.
    auditor_.finalize();
    EXPECT_EQ(auditor_.redundantTotal(), 6 * page + 2 * rest_bytes);
}

// ---- End-to-end: auditor attached to a real driver ----

class AuditorDriverTest : public ::testing::Test
{
  protected:
    AuditorDriverTest()
        : drv_(test::tinyConfig(/*chunks=*/2), test::testLink())
    {
        drv_.setObserver(&auditor_);
    }

    uvm::UvmDriver drv_;
    Auditor auditor_;
    sim::SimTime t_ = 0;
};

TEST_F(AuditorDriverTest, Figure2PatternIsClassifiedRedundant)
{
    // A temporary GPU buffer: written, used, then dead — but the
    // driver swaps it out and back under pressure.
    mem::VirtAddr tmp = drv_.allocManaged(2 * kBigPageSize, "tmp");
    mem::VirtAddr other = drv_.allocManaged(2 * kBigPageSize, "other");

    // Step 1-2: GPU writes then reads tmp (zero-fill, no transfer).
    t_ = drv_.gpuAccess(
        0, {{tmp, 2 * kBigPageSize, AccessKind::kWrite}}, t_);
    t_ = drv_.gpuAccess(
        0, {{tmp, 2 * kBigPageSize, AccessKind::kRead}}, t_);

    // Step 3: pressure evicts tmp (D2H of dead data).
    t_ = drv_.prefetch(other, 2 * kBigPageSize, ProcessorId::gpu(0),
                       t_);
    // Step 4-5: tmp is faulted back (H2D of dead data) and only then
    // overwritten.
    t_ = drv_.gpuAccess(
        0, {{tmp, 2 * kBigPageSize, AccessKind::kWrite}}, t_);

    EXPECT_EQ(auditor_.redundantD2h(), 2 * kBigPageSize);
    EXPECT_EQ(auditor_.redundantH2d(), 2 * kBigPageSize);
    EXPECT_EQ(auditor_.requiredTotal(), 0u);
}

TEST_F(AuditorDriverTest, UsefulDataRoundTripIsRequired)
{
    mem::VirtAddr a = drv_.allocManaged(2 * kBigPageSize, "a");
    mem::VirtAddr other = drv_.allocManaged(2 * kBigPageSize, "other");

    t_ = drv_.hostAccess(a, 2 * kBigPageSize, AccessKind::kWrite, t_);
    t_ = drv_.prefetch(a, 2 * kBigPageSize, ProcessorId::gpu(0), t_);
    t_ = drv_.gpuAccess(0, {{a, 2 * kBigPageSize, AccessKind::kRead}},
                        t_);
    // Eviction of a — then the host reads the values again.
    t_ = drv_.prefetch(other, 2 * kBigPageSize, ProcessorId::gpu(0),
                       t_);
    t_ = drv_.hostAccess(a, 2 * kBigPageSize, AccessKind::kRead, t_);

    auditor_.finalize();
    EXPECT_EQ(auditor_.redundantTotal(), 0u);
    // Two 2-block transfers: the prefetch up and the eviction back.
    EXPECT_EQ(auditor_.requiredTotal(), 2 * 2 * kBigPageSize);
}

TEST_F(AuditorDriverTest, AuditedBytesMatchLinkTraffic)
{
    mem::VirtAddr a = drv_.allocManaged(2 * kBigPageSize, "a");
    mem::VirtAddr b = drv_.allocManaged(2 * kBigPageSize, "b");
    t_ = drv_.hostAccess(a, 2 * kBigPageSize, AccessKind::kWrite, t_);
    t_ = drv_.prefetch(a, 2 * kBigPageSize, ProcessorId::gpu(0), t_);
    t_ = drv_.gpuAccess(0, {{b, 2 * kBigPageSize, AccessKind::kWrite}},
                        t_);
    t_ = drv_.hostAccess(b, kBigPageSize, AccessKind::kRead, t_);
    auditor_.finalize();
    EXPECT_EQ(auditor_.totalTransferred(),
              drv_.totalTrafficBytes());
}

// ---- Differential: the Auditor against a brute-force reference ----

/**
 * Reference classifier: a plain per-page count of open transfers for
 * each direction, updated one page at a time.  It implements the
 * Auditor's rules with no masks and no bit slicing.
 */
class ReferenceAuditor : public uvm::TransferObserver
{
  public:
    void
    onTransfer(const VaBlock &block, const PageMask &pages,
               Direction dir, TransferCause /*cause*/) override
    {
        for (std::uint32_t p = 0; p < mem::kPagesPerBlock; ++p) {
            if (!pages.test(p))
                continue;
            OpenCount &open = open_[block.base + p * mem::kSmallPageSize];
            std::uint64_t &n =
                dir == Direction::kHostToDevice ? open.h2d : open.d2h;
            ++n;
            max_count = std::max(max_count, n);
        }
    }

    void
    onTransferSkipped(const VaBlock & /*block*/, const PageMask &pages,
                      Direction /*dir*/,
                      TransferCause /*cause*/) override
    {
        skipped += pages.count() * mem::kSmallPageSize;
    }

    void
    onAccess(const VaBlock &block, const PageMask &pages, bool is_read,
             bool is_write, ProcessorId /*where*/) override
    {
        if (is_read)
            close(block, pages, /*required=*/true);
        else if (is_write)
            close(block, pages, /*required=*/false);
    }

    void
    onDiscard(const VaBlock &block, const PageMask &pages) override
    {
        close(block, pages, /*required=*/false);
    }

    void
    onFree(const VaBlock &block, const PageMask &pages) override
    {
        close(block, pages, /*required=*/false);
    }

    /** Close everything still open as redundant. */
    void
    finalize()
    {
        for (auto &kv : open_)
            closePage(kv.second, /*required=*/false);
    }

    /** Bytes of transfers not yet closed. */
    sim::Bytes
    openBytes() const
    {
        std::uint64_t pages = 0;
        for (const auto &kv : open_)
            pages += kv.second.h2d + kv.second.d2h;
        return pages * mem::kSmallPageSize;
    }

    sim::Bytes required = 0;
    sim::Bytes redundant = 0;
    sim::Bytes skipped = 0;
    /** Largest open count any page reached in one direction. */
    std::uint64_t max_count = 0;

  private:
    struct OpenCount {
        std::uint64_t h2d = 0;
        std::uint64_t d2h = 0;
    };

    void
    close(const VaBlock &block, const PageMask &pages, bool required)
    {
        for (std::uint32_t p = 0; p < mem::kPagesPerBlock; ++p) {
            if (!pages.test(p))
                continue;
            auto it = open_.find(block.base + p * mem::kSmallPageSize);
            if (it != open_.end())
                closePage(it->second, required);
        }
    }

    void
    closePage(OpenCount &open, bool is_required)
    {
        sim::Bytes bytes = (open.h2d + open.d2h) * mem::kSmallPageSize;
        (is_required ? required : redundant) += bytes;
        open = OpenCount{};
    }

    std::map<mem::VirtAddr, OpenCount> open_;
};

/**
 * An Auditor and a ReferenceAuditor fed the same events, block by
 * block, compared after every step.  Counts live in the Auditor's
 * uniform count, in its planes or in both, and each step below moves
 * them between the two.
 */
class AuditorTwin
{
  public:
    AuditorTwin()
    {
        mux_.add(&auditor);
        mux_.add(&ref);
    }

    void
    transfer(const VaBlock &block, const PageMask &pages,
             Direction dir = Direction::kHostToDevice)
    {
        mux_.onTransfer(block, pages, dir, TransferCause::kEviction);
    }

    void
    access(const VaBlock &block, const PageMask &pages, bool is_read)
    {
        mux_.onAccess(block, pages, is_read, !is_read, ProcessorId::gpu(0));
    }

    void
    discard(const VaBlock &block, const PageMask &pages)
    {
        mux_.onDiscard(block, pages);
    }

    /** onAccessRun; the reference takes the per-block default. */
    void
    run(VaBlock *const *blocks, std::size_t n, bool is_read)
    {
        mux_.onAccessRun(blocks, n, is_read, !is_read, ProcessorId::gpu(0));
    }

    void
    finalize()
    {
        auditor.finalize();
        ref.finalize();
    }

    /** Equal required and redundant bytes, and equal open bytes. */
    void
    expectMatch(const std::string &label) const
    {
        EXPECT_EQ(auditor.requiredTotal(), ref.required) << label;
        EXPECT_EQ(auditor.redundantTotal(), ref.redundant) << label;
        EXPECT_EQ(auditor.openBytes(), ref.openBytes()) << label;
        test::expectAttributionConserved(auditor, ref.skipped, label);
    }

    Auditor auditor;
    ReferenceAuditor ref;

  private:
    uvm::ObserverMux mux_;
};

/** Pages [first, first + n). */
PageMask
pageSpan(std::uint32_t first, std::uint32_t n)
{
    return uvm::makeMask(first, first + n - 1);
}

/** A block of @p range at open key @p key with @p valid pages. */
VaBlock
makeBlock(uvm::VaRange &range, std::uint64_t key, const PageMask &valid)
{
    VaBlock block;
    block.base = (uvm::VaSpace::kFirstKey + key) * kBigPageSize;
    block.range = &range;
    block.setValid(valid);
    return block;
}

TEST(AuditorUniformTest, WholeOpensPartialClosesThenWholeCloses)
{
    // Whole-block opens before partial opens, and after them; then
    // partial closes of both directions, then a whole close by each
    // of the three whole-block closers.
    uvm::VaRange range{};
    range.id = 1;
    range.name = "u";
    for (bool whole_first : {true, false}) {
        for (int closer = 0; closer < 3; ++closer) {
            VaBlock block = makeBlock(range, 5, fullMask());
            VaBlock *run[] = {&block};
            const std::string label = "whole_first " +
                                      std::to_string(whole_first) +
                                      " closer " + std::to_string(closer);
            AuditorTwin twin;
            auto whole = [&] {
                for (int i = 0; i < 3; ++i)
                    twin.transfer(block, block.valid);
                twin.transfer(block, block.valid, Direction::kDeviceToHost);
            };
            auto partial = [&] {
                twin.transfer(block, pageSpan(10, 50));
                twin.transfer(block, pageSpan(30, 100));
                twin.transfer(block, pageSpan(0, 4),
                              Direction::kDeviceToHost);
            };
            if (whole_first) {
                whole();
                partial();
            } else {
                partial();
                whole();
            }
            twin.expectMatch(label + " opened");
            twin.access(block, pageSpan(0, 20), /*is_read=*/true);
            twin.expectMatch(label + " read 0-19");
            twin.access(block, pageSpan(40, 60), /*is_read=*/false);
            twin.expectMatch(label + " wrote 40-99");
            // Reopen part of what closed, then close it again.
            twin.transfer(block, pageSpan(0, 45));
            twin.access(block, pageSpan(5, 2), /*is_read=*/true);
            twin.expectMatch(label + " reopened");
            switch (closer) {
            case 0:
                twin.access(block, block.valid, /*is_read=*/true);
                break;
            case 1:
                twin.discard(block, block.valid);
                break;
            default:
                twin.run(run, 1, /*is_read=*/false);
                break;
            }
            twin.expectMatch(label + " closed whole");
            EXPECT_EQ(twin.auditor.openBytes(), 0u) << label;
            // The block starts over from nothing.
            twin.transfer(block, block.valid);
            twin.access(block, pageSpan(100, 1), /*is_read=*/true);
            twin.expectMatch(label + " restarted");
        }
    }
}

TEST(AuditorUniformTest, PartialCloseFoldsAUniformCountOfSeventeen)
{
    // 17 whole-block opens (five bits) on top of planes that already
    // hold 3 on pages 0-63 and 1 on pages 64-127, so the fold carries
    // across existing planes.  Closing any page afterwards must find
    // its full count: 17 plus what the planes held.
    uvm::VaRange range{};
    range.id = 1;
    range.name = "u";
    VaBlock block = makeBlock(range, 9, fullMask());
    AuditorTwin twin;
    for (int i = 0; i < 3; ++i)
        twin.transfer(block, pageSpan(0, 64));
    twin.transfer(block, pageSpan(64, 64));
    for (int i = 0; i < 17; ++i)
        twin.transfer(block, block.valid);
    twin.expectMatch("opened");
    EXPECT_EQ(twin.ref.max_count, 20u);

    twin.access(block, pageSpan(500, 1), /*is_read=*/true);
    EXPECT_EQ(twin.auditor.requiredH2d(), 17 * mem::kSmallPageSize);
    twin.expectMatch("read page 500");
    twin.access(block, pageSpan(60, 8), /*is_read=*/false);
    EXPECT_EQ(twin.auditor.redundantH2d(),
              (4 * 20 + 4 * 18) * mem::kSmallPageSize);
    twin.expectMatch("wrote pages 60-67");
    twin.access(block, pageSpan(200, 1), /*is_read=*/true);
    twin.expectMatch("read page 200");
    // More whole opens on top of the folded planes, then a partial
    // and a whole close.
    for (int i = 0; i < 17; ++i)
        twin.transfer(block, block.valid);
    twin.access(block, pageSpan(0, 300), /*is_read=*/true);
    twin.expectMatch("read pages 0-299");
    twin.discard(block, block.valid);
    twin.expectMatch("discarded");
    EXPECT_EQ(twin.auditor.openBytes(), 0u);
}

TEST(AuditorUniformTest, ShortLastBlock)
{
    // A range whose last block has 226 valid pages: its whole-block
    // mask is not all 512 pages, and a close with the full mask
    // covers more than the block holds.
    uvm::VaRange range{};
    range.id = 2;
    range.name = "short";
    VaBlock blocks[] = {makeBlock(range, 0, fullMask()),
                        makeBlock(range, 1, pageSpan(0, 226))};
    VaBlock *run[] = {&blocks[0], &blocks[1]};
    AuditorTwin twin;
    for (int i = 0; i < 4; ++i) {
        for (VaBlock &b : blocks) {
            twin.transfer(b, b.valid);
            twin.transfer(b, b.valid, Direction::kDeviceToHost);
        }
    }
    twin.transfer(blocks[1], pageSpan(200, 26));
    twin.expectMatch("opened");
    twin.access(blocks[1], pageSpan(0, 100), /*is_read=*/true);
    twin.expectMatch("read 0-99 of the short block");
    twin.discard(blocks[1], fullMask());
    twin.expectMatch("discarded the short block with a full mask");
    for (VaBlock &b : blocks)
        twin.transfer(b, b.valid);
    twin.access(blocks[1], blocks[1].valid, /*is_read=*/false);
    twin.expectMatch("wrote the short block whole");
    twin.transfer(blocks[1], blocks[1].valid);
    twin.run(run, 2, /*is_read=*/true);
    twin.expectMatch("run over both");
    EXPECT_EQ(twin.auditor.openBytes(), 0u);
}

TEST(AuditorUniformTest, WholeMeansTheValidMaskAndAssumesTransfersWithinIt)
{
    // The driver moves only valid pages, and this is where the
    // Auditor relies on it.  A transfer of all 512 pages of a block
    // with 10 valid pages is a partial transfer, counted page by page
    // like the reference, and partial closes stay exact.  A whole-block
    // close returns the running total without masking it with valid,
    // so it closes the 502 pages outside valid too; the reference
    // leaves those open.
    uvm::VaRange range{};
    range.id = 1;
    range.name = "u";
    VaBlock block = makeBlock(range, 3, pageSpan(0, 10));
    AuditorTwin twin;
    twin.transfer(block, fullMask());
    twin.expectMatch("all pages opened");
    EXPECT_EQ(twin.auditor.openBytes(), 512 * mem::kSmallPageSize);
    twin.access(block, pageSpan(0, 300), /*is_read=*/true);
    twin.expectMatch("partial close");
    twin.discard(block, fullMask());
    twin.expectMatch("closed with the full mask");
    EXPECT_EQ(twin.auditor.openBytes(), 0u);

    twin.transfer(block, fullMask());
    twin.access(block, block.valid, /*is_read=*/true);
    EXPECT_EQ(twin.auditor.requiredH2d(), (300 + 512) * mem::kSmallPageSize);
    EXPECT_EQ(twin.ref.required, (300 + 10) * mem::kSmallPageSize);
    EXPECT_EQ(twin.auditor.openBytes(), 0u);
}

TEST(AuditorUniformTest, FinalizeAfterMixedHistory)
{
    // Blocks left with only a uniform count, only planes, both, a
    // folded uniform count, nothing, and a short block: finalize()
    // closes them all as redundant, one dead cycle per open block.
    uvm::VaRange range{};
    range.id = 3;
    range.name = "mixed";
    std::vector<VaBlock> blocks;
    for (std::uint64_t k = 0; k < 6; ++k)
        blocks.push_back(makeBlock(range, 64 * k + k, fullMask()));
    blocks.push_back(makeBlock(range, 400, pageSpan(0, 7)));
    AuditorTwin twin;
    twin.transfer(blocks[0], blocks[0].valid);
    twin.transfer(blocks[1], pageSpan(3, 9));
    twin.transfer(blocks[2], blocks[2].valid);
    twin.transfer(blocks[2], pageSpan(1, 2), Direction::kDeviceToHost);
    for (int i = 0; i < 5; ++i)
        twin.transfer(blocks[3], blocks[3].valid);
    twin.access(blocks[3], pageSpan(0, 256), /*is_read=*/true);
    twin.transfer(blocks[4], blocks[4].valid);
    twin.access(blocks[4], blocks[4].valid, /*is_read=*/true);
    twin.transfer(blocks[5], blocks[5].valid, Direction::kDeviceToHost);
    twin.access(blocks[5], pageSpan(0, 1), /*is_read=*/false);
    twin.transfer(blocks[6], blocks[6].valid);
    twin.transfer(blocks[6], pageSpan(2, 3));
    twin.expectMatch("before finalize");

    const std::uint64_t cycles = twin.auditor.ranges()[3].dead_cycles;
    twin.finalize();
    twin.expectMatch("after finalize");
    EXPECT_EQ(twin.auditor.openBytes(), 0u);
    // Blocks 0, 1, 2, 3, 5 and 6 were open; block 4 was not.
    EXPECT_EQ(twin.auditor.ranges()[3].dead_cycles, cycles + 6);
    twin.finalize();
    twin.expectMatch("finalize again");
}

/**
 * Run @p script with the reference attached beside the scenario's own
 * Auditor and expect the same required, redundant and skipped bytes.
 * A second Auditor rides along to check that its per-range table
 * conserves the redundant and skipped bytes.
 * @return the largest per-page open count the script reached.
 */
std::uint64_t
expectMatchesReference(const std::string &script, const std::string &label)
{
    ReferenceAuditor ref;
    Auditor attributed;
    uvm::ObserverMux mux;
    mux.add(&ref);
    mux.add(&attributed);
    workloads::ScenarioHooks hooks;
    hooks.observer = &mux;
    workloads::ScenarioResult r = workloads::runScenario(script, hooks);
    ref.finalize();
    EXPECT_EQ(r.required, ref.required) << label;
    EXPECT_EQ(r.redundant, ref.redundant) << label;
    EXPECT_EQ(r.skipped_by_discard, ref.skipped) << label;
    attributed.finalize();
    EXPECT_EQ(attributed.redundantTotal(), ref.redundant) << label;
    test::expectAttributionConserved(attributed, ref.skipped, label);
    return ref.max_count;
}

class AuditorDifferential : public ::testing::Test
{
  protected:
    AuditorDifferential() { sim::setLogLevel(sim::LogLevel::kQuiet); }
    ~AuditorDifferential() override
    {
        sim::setLogLevel(sim::LogLevel::kNormal);
    }
};

TEST_F(AuditorDifferential, MatchesReferenceOnFuzzCorpus)
{
    // The CI verify-fuzz corpus: seeds 1-200, faults off and on.
    int scripts = 0;
    for (bool faults : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 200; ++seed) {
            expectMatchesReference(
                fuzz::generateScenario(seed, faults),
                "seed " + std::to_string(seed) + " faults " +
                    std::to_string(faults));
            ++scripts;
        }
    }
    EXPECT_EQ(scripts, 400);
}

TEST_F(AuditorDifferential, MatchesReferenceOnThrash)
{
    // Buffer a bounces between host and device, by explicit prefetch
    // and by eviction under b, without being accessed: its pages
    // collect up to 17 open transfers per direction (five planes).
    // Each closer then ends them a different way.
    const char *closers[] = {
        "host_read a",
        "kernel k read a compute 10us",
        "kernel k write a compute 10us",
        "discard a eager",
        "discard a lazy",
        "free a",
        "",  // left open: closed by the final sweep
    };
    std::uint64_t max_count = 0;
    for (int cycles : {3, 9, 17}) {
        for (const char *closer : closers) {
            std::string script = "gpu_memory 16MiB\n"
                                 "link pcie4\n"
                                 "alloc a 4MiB\n"
                                 "alloc b 16MiB\n"
                                 "host_write a\n";
            for (int i = 0; i < cycles; ++i) {
                script += i % 2 ? "prefetch a gpu\nprefetch a cpu\n"
                                : "prefetch a gpu\nprefetch b gpu\n";
            }
            script += std::string(closer) + "\nsync\n";
            max_count = std::max(
                max_count,
                expectMatchesReference(
                    script, "cycles " + std::to_string(cycles) +
                                " closer '" + closer + "'"));
        }
    }
    // A count of 17 needs five planes: the carries across planes are
    // exercised, not only the single-plane case.  (The fuzz corpus
    // alone peaks at two open transfers per page.)
    EXPECT_GE(max_count, 17u);
}

TEST_F(AuditorDifferential, MatchesReferenceOnShortLastBlock)
{
    // Buffer a is 5000 KiB: its last block has 226 valid pages, so its
    // whole-block transfers and closes use a mask that is not all 512
    // pages.  Its pages collect up to five open transfers per
    // direction before the closer.
    const char *closers[] = {
        "host_read a",
        "kernel k read a compute 10us",
        "kernel k write a compute 10us",
        "discard a eager",
        "free a",
        "",
    };
    for (const char *closer : closers) {
        std::string script = "gpu_memory 16MiB\n"
                             "link pcie4\n"
                             "alloc a 5000KiB\n"
                             "alloc b 14MiB\n"
                             "host_write a\n";
        for (int i = 0; i < 6; ++i) {
            script += i % 2 ? "prefetch a gpu\nprefetch a cpu\n"
                            : "prefetch a gpu\nprefetch b gpu\n";
        }
        script += std::string(closer) + "\nsync\n";
        EXPECT_GE(expectMatchesReference(
                      script, "closer '" + std::string(closer) + "'"),
                  5u);
    }
}

TEST_F(AuditorDifferential, MatchesReferenceOnPartialClosesThroughTheRuntime)
{
    // Whole-range prefetches and the evictions they cause open a's
    // blocks whole (uniform counts).  Then a span from page 100 of
    // a's first block to page 99 of its second closes part of both,
    // and pages 20-69 of the first block, which the first close left
    // open, close next: by a host read, a kernel read or write, or an
    // eager or lazy discard.  The next round opens whole blocks on
    // top of the planes those closes left.  The scenario DSL has no
    // sub-range operands, so this drives the Runtime directly.
    enum class Closer { kHostRead, kKernel, kDiscard };
    for (Closer closer : {Closer::kHostRead, Closer::kKernel,
                          Closer::kDiscard}) {
        uvm::UvmConfig cfg;
        cfg.gpu_memory = 8 * sim::kMiB;
        // A sub-block discard of a fully mapped block is otherwise
        // ignored (Section 5.4).
        cfg.partial_discard_splits = true;
        cuda::Runtime rt(cfg, interconnect::LinkSpec::pcie4());
        Auditor auditor;
        ReferenceAuditor ref;
        uvm::ObserverMux mux;
        mux.add(&auditor);
        mux.add(&ref);
        rt.driver().setObserver(&mux);

        const sim::Bytes a_size = 2 * kBigPageSize;
        const sim::Bytes b_size = 4 * kBigPageSize;
        mem::VirtAddr a = rt.mallocManaged(a_size, "a");
        mem::VirtAddr b = rt.mallocManaged(b_size, "b");
        rt.hostTouch(a, a_size, AccessKind::kWrite);

        auto kernel = [](uvm::Access access) {
            cuda::KernelDesc k;
            k.name = "k";
            k.accesses = {access};
            k.compute = sim::microseconds(10);
            return k;
        };
        std::string label;
        auto expectMatch = [&](const char *step) {
            rt.synchronize();
            EXPECT_EQ(auditor.requiredTotal(), ref.required)
                << label << step;
            EXPECT_EQ(auditor.redundantTotal(), ref.redundant)
                << label << step;
            EXPECT_EQ(auditor.openBytes(), ref.openBytes())
                << label << step;
        };
        const sim::Bytes page = mem::kSmallPageSize;
        const std::pair<mem::VirtAddr, sim::Bytes> spans[] = {
            {a + 100 * page, kBigPageSize}, {a + 20 * page, 50 * page}};
        for (int round = 0; round < 3; ++round) {
            label = "closer " + std::to_string(int(closer)) + " round " +
                    std::to_string(round) + ": ";
            rt.prefetchAsync(a, a_size, ProcessorId::gpu(0));
            rt.prefetchAsync(b, b_size, ProcessorId::gpu(0));
            rt.prefetchAsync(a, a_size, ProcessorId::gpu(0));
            expectMatch("whole opens");
            ASSERT_GT(auditor.openBytes(), 0u) << label;
            bool odd = round % 2;
            for (auto [addr, size] : spans) {
                switch (closer) {
                  case Closer::kHostRead:
                    rt.hostTouch(addr, size, AccessKind::kRead);
                    break;
                  case Closer::kKernel:
                    rt.launch(kernel({addr, size,
                                      odd ? AccessKind::kWrite
                                          : AccessKind::kRead}));
                    break;
                  case Closer::kDiscard:
                    rt.discardAsync(addr, size,
                                    odd ? uvm::DiscardMode::kLazy
                                        : uvm::DiscardMode::kEager);
                    break;
                }
                expectMatch("partial close");
            }
        }
        label = "closer " + std::to_string(int(closer)) + ": ";
        rt.launch(kernel({a, a_size, AccessKind::kRead}));
        expectMatch("whole close");
        auditor.finalize();
        ref.finalize();
        expectMatch("finalize");
        test::expectAttributionConserved(auditor, ref.skipped, label);
    }
}

}  // namespace
}  // namespace uvmd::trace
