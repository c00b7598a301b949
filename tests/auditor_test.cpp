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
        block_.base = 4 * kBigPageSize;
        block_.valid = fullMask();
    }

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

TEST_F(AuditorUnitTest, SkippedTransfersAreCountedSeparately)
{
    auditor_.onTransferSkipped(block_, fullMask(),
                               Direction::kDeviceToHost,
                               TransferCause::kEviction);
    EXPECT_EQ(auditor_.skippedD2h(), kBigPageSize);
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
 * Run @p script with the reference attached beside the scenario's own
 * Auditor and expect the same required, redundant and skipped bytes.
 * @return the largest per-page open count the script reached.
 */
std::uint64_t
expectMatchesReference(const std::string &script, const std::string &label)
{
    ReferenceAuditor ref;
    workloads::ScenarioHooks hooks;
    hooks.observer = &ref;
    workloads::ScenarioResult r = workloads::runScenario(script, hooks);
    ref.finalize();
    EXPECT_EQ(r.required, ref.required) << label;
    EXPECT_EQ(r.redundant, ref.redundant) << label;
    EXPECT_EQ(r.skipped_by_discard, ref.skipped) << label;
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

}  // namespace
}  // namespace uvmd::trace
