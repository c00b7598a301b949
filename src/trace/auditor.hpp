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
 * over pages.
 */

#ifndef UVMD_TRACE_AUDITOR_HPP
#define UVMD_TRACE_AUDITOR_HPP

#include <cstdint>
#include <unordered_map>

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
    void onDiscard(const uvm::VaBlock &block,
                   const uvm::PageMask &pages) override;
    void onFree(const uvm::VaBlock &block,
                const uvm::PageMask &pages) override;

    /**
     * Close still-open transfers as redundant (a value that is never
     * read again did not need its last moves).  Call once after the
     * workload's results have been consumed.
     */
    void finalize();

    /** finalize() restricted to one block (per-range attribution). */
    void finalizeBlock(const uvm::VaBlock &block);

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

      private:
        sim::SmallVec<uvm::PageMask, 1> planes_;
    };

    struct BlockAudit {
        OpenCounts h2d;
        OpenCounts d2h;
    };

    BlockAudit &auditOf(const uvm::VaBlock &block);

    /** Close open transfers of the masked pages.
     *  @param required classify as required (else redundant). */
    void close(const uvm::VaBlock &block, const uvm::PageMask &pages,
               bool required);
    void closeAudit(BlockAudit &audit, const uvm::PageMask &pages,
                    bool required);

    std::unordered_map<std::uint64_t, BlockAudit> blocks_;
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
