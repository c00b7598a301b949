/**
 * @file
 * Transfer auditor: classifies migrations as required or redundant.
 *
 * The paper defines redundant memory transfers (RMTs) as automatic
 * transfers "not needed for correctness" (Sections 1, 3).  The
 * auditor implements that definition value-centrically:
 *
 *   - every write (or zero-fill) starts a new value generation for a
 *     4 KB page;
 *   - a transfer of the page "opens" for the current value;
 *   - a read anywhere closes all open transfers of that page as
 *     REQUIRED (the moved value was consumed after the moves);
 *   - the value dying — overwritten without an intervening read,
 *     discarded, or freed — closes open transfers as REDUNDANT.
 *
 * A device-to-host eviction followed by a host-to-device migration
 * back and a GPU read therefore counts both transfers as required
 * (skipping either would lose the value), while Figure 2's pattern —
 * evict dead data out and back, then overwrite — counts both as
 * redundant.  This is the instrumentation behind Figure 3's
 * "actually required" series.
 *
 * A page can collect many open transfers of one direction before its
 * value is read or dies (radix thrash moves the same dead page out
 * and back on nearly every pass), so each block counts open transfers
 * per page and direction, in bit-sliced PageMask planes: opening and
 * closing cost a few whole-mask operations per plane, never a loop
 * over pages.  A dense bit per block records whether it has any open
 * transfer at all, so the common access to a block with nothing open
 * costs one bit test, not a hash lookup.
 *
 * The auditor also diagnoses where an application should insert the
 * discard directive.  The paper's related work (Section 8) suggests
 * that "a compiler-assisted approach that detects the buffer reuse
 * distance can be extended to diagnose the insertion of UvmDiscard
 * API calls"; this is that tool, built on the driver instrumentation
 * instead of a compiler.  Every redundant close and every skipped
 * transfer is booked to the managed range the block belongs to, in
 * a table indexed by VaRange::id, and suggestions() ranks the ranges
 * a discard call would help.  Run the application under plain UVM
 * and read the report; running the fixed application again should
 * produce an empty one.
 */

#ifndef UVMD_TRACE_AUDITOR_HPP
#define UVMD_TRACE_AUDITOR_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/arena.hpp"
#include "sim/stats.hpp"
#include "uvm/observer.hpp"

namespace uvmd::trace {

class Auditor : public uvm::TransferObserver
{
  public:
    void onTransfer(const uvm::VaBlock &block,
                    const uvm::PageMask &pages,
                    interconnect::Direction dir,
                    uvm::TransferCause cause) override;
    void onTransferSkipped(const uvm::VaBlock &block,
                           const uvm::PageMask &pages,
                           interconnect::Direction dir,
                           uvm::TransferCause cause) override;
    void onAccess(const uvm::VaBlock &block, const uvm::PageMask &pages,
                  bool is_read, bool is_write,
                  uvm::ProcessorId where) override;
    void onAccessRun(uvm::VaBlock *const *blocks, std::size_t n,
                     bool is_read, bool is_write,
                     uvm::ProcessorId where) override;
    void onDiscard(const uvm::VaBlock &block,
                   const uvm::PageMask &pages) override;
    void onFree(const uvm::VaBlock &block,
                const uvm::PageMask &pages) override;

    /**
     * Close still-open transfers as redundant (a value that is never
     * read again did not need its last moves).  Call after the
     * workload's results have been consumed; calling it again closes
     * nothing more.
     */
    void finalize();

    // ---- Results (bytes) ----

    sim::Bytes requiredH2d() const { return required_h2d_; }
    sim::Bytes requiredD2h() const { return required_d2h_; }
    sim::Bytes redundantH2d() const { return redundant_h2d_; }
    sim::Bytes redundantD2h() const { return redundant_d2h_; }
    sim::Bytes skippedH2d() const { return skipped_h2d_; }
    sim::Bytes skippedD2h() const { return skipped_d2h_; }

    sim::Bytes
    totalTransferred() const
    {
        return required_h2d_ + required_d2h_ + redundant_h2d_ +
               redundant_d2h_ + openBytes();
    }

    sim::Bytes
    requiredTotal() const
    {
        return required_h2d_ + required_d2h_;
    }

    sim::Bytes
    redundantTotal() const
    {
        return redundant_h2d_ + redundant_d2h_;
    }

    /** Bytes of transfers not yet classified. */
    sim::Bytes openBytes() const { return open_bytes_; }

    // ---- Per-range attribution (discard advice) ----

    /** What one managed range's dead data cost. */
    struct RangeWaste {
        std::string range_name;
        sim::Bytes wasted_bytes = 0;     ///< redundant transfers caused
        std::uint64_t dead_cycles = 0;   ///< redundant closes with bytes
        sim::Bytes already_skipped = 0;  ///< existing discards' effect

        /** The human-readable advice line. */
        std::string advice() const;
    };

    /** Indexed by VaRange::id; a range that never moved or skipped
     *  bytes has an empty, zero entry (or none past the end). */
    const std::vector<RangeWaste> &ranges() const { return ranges_; }

    /**
     * finalize(), then rank the ranges that wasted bytes by wasted
     * bytes (descending), dropping those below @p min_wasted.
     */
    std::vector<RangeWaste> suggestions(sim::Bytes min_wasted = 0);

    /** Print the ranked suggestions. */
    void report(std::ostream &os, sim::Bytes min_wasted = 0);

  private:
    /**
     * Per-page open-transfer counts of one block and direction, bit
     * sliced: planes_[i] holds bit i of every page's count.  add()
     * ripples a carry up the planes; take() sums
     * popcount(planes_[i] & pages) << i.  No plane is kept above the
     * highest nonzero bit, so a block whose pages each have at most
     * one open transfer holds a single inline plane.
     */
    class OpenCounts
    {
      public:
        /** Add one to the count of every page in @p pages. */
        void add(const uvm::PageMask &pages);

        /** Sum of the counts of @p pages; resets those counts to 0. */
        std::uint64_t take(const uvm::PageMask &pages);

        bool empty() const { return planes_.empty(); }

      private:
        sim::SmallVec<uvm::PageMask, 1> planes_;
    };

    struct BlockAudit {
        OpenCounts h2d;
        OpenCounts d2h;
        std::uint32_t range = 0;  ///< owning VaRange::id
    };

    BlockAudit &auditOf(const uvm::VaBlock &block);

    /** The table entry of @p range, named on first use. */
    RangeWaste &wasteOf(const uvm::VaRange &range);

    /** Close open transfers of the masked pages.
     *  @param required classify as required (else redundant, booked
     *         to the block's range as one dead cycle). */
    void close(const uvm::VaBlock &block, const uvm::PageMask &pages,
               bool required);
    void closeAudit(BlockAudit &audit, const uvm::PageMask &pages,
                    bool required);

    /** Is bit @p key (blockIndex() - VaSpace::kFirstKey) of open_
     *  set? */
    bool
    isOpen(std::uint64_t key) const
    {
        return key / 64 < open_.size() && (open_[key / 64] >> key % 64) & 1;
    }

    /** Keyed by VaBlock::blockIndex(). */
    std::unordered_map<std::uint64_t, BlockAudit> blocks_;
    /** Bit blockIndex() - VaSpace::kFirstKey set iff that block's
     *  BlockAudit has an open transfer. */
    std::vector<std::uint64_t> open_;
    std::vector<RangeWaste> ranges_;
    sim::Bytes required_h2d_ = 0;
    sim::Bytes required_d2h_ = 0;
    sim::Bytes redundant_h2d_ = 0;
    sim::Bytes redundant_d2h_ = 0;
    sim::Bytes skipped_h2d_ = 0;
    sim::Bytes skipped_d2h_ = 0;
    sim::Bytes open_bytes_ = 0;
};

}  // namespace uvmd::trace

#endif  // UVMD_TRACE_AUDITOR_HPP
