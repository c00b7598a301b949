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
 * and back on nearly every pass), so each block keeps, per direction,
 * a count of open transfers per page, in three parts:
 *
 *   - a uniform count that applies to every valid page, which a
 *     whole-block transfer (pages == block.valid) bumps;
 *   - bit-sliced PageMask planes for the transfers of partial masks,
 *     held out of line in a pool and absent while unused;
 *   - the running total of open page transfers.
 *
 * A whole-block close returns the total, and every onAccessRun,
 * whole-range discard and finalize() is one, so the common events
 * cost O(1) and no popcount.  Only a partial close does mask work:
 * it charges the uniform count over the closed valid pages and folds
 * the uniform count of the other valid pages into the planes.  The
 * driver moves only valid pages, and a whole-block close relies on
 * that: its total is not masked with block.valid.
 *
 * Block records sit in a two-level table indexed by blockIndex() -
 * VaSpace::kFirstKey, in chunks of 64 allocated on first touch, and a
 * dense bit per block records whether it has any open transfer at
 * all, so the common access to a block with nothing open costs one
 * bit test and a run of accesses skips 64 closed blocks per word.
 *
 * The auditor also diagnoses where an application should insert the
 * discard directive.  The paper's related work (Section 8) suggests
 * that "a compiler-assisted approach that detects the buffer reuse
 * distance can be extended to diagnose the insertion of UvmDiscard
 * API calls"; this is that tool, built on the driver instrumentation
 * instead of a compiler.  Every redundant close and every skipped
 * transfer is booked to the managed range the block belongs to, in
 * a table indexed by VaRange::id, and suggestions() ranks the ranges
 * a discard call would help.  The skip totals themselves are the
 * driver's saved_*_bytes counters; the auditor keeps only their
 * per-range split.  Run the application under plain UVM
 * and read the report; running the fixed application again should
 * produce an empty one.
 */

#ifndef UVMD_TRACE_AUDITOR_HPP
#define UVMD_TRACE_AUDITOR_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
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

    /** Add the open-transfer state (per open block, each direction's
     *  uniform count, planes and total) to @p d.  The classified
     *  totals and the per-range table are outputs and stay out, and a
     *  record's range id only routes attribution to that table. */
    bool hashState(sim::Digest &d) const override;

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
     * Per-page counts of some pages, bit sliced: plane i holds bit i
     * of every page's count.  No plane is kept above the highest
     * nonzero bit, so counts of at most one need a single inline
     * plane.
     */
    class Planes
    {
      public:
        /** Add @p n to the count of every page in @p pages. */
        void add(const uvm::PageMask &pages, std::uint64_t n);

        /** Sum of the counts of @p pages; resets those counts to 0. */
        std::uint64_t take(const uvm::PageMask &pages);

        void clear() { planes_.clear(); }

        void
        hashState(sim::Digest &d) const
        {
            d.add(planes_.size());
            for (const uvm::PageMask &plane : planes_)
                d.add(plane);
        }

      private:
        sim::SmallVec<uvm::PageMask, 1> planes_;
    };

    static constexpr std::uint32_t kNoPlanes = ~std::uint32_t{0};

    /** Open transfers of one block and direction: page p has
     *  @c uniform (if p is valid) plus its count in the planes. */
    struct OpenCounts {
        std::uint32_t uniform = 0;
        /** Index into planes_, or kNoPlanes. */
        std::uint32_t planes = kNoPlanes;
        /** Sum of every page's count. */
        std::uint64_t total = 0;
    };

    struct BlockAudit {
        OpenCounts h2d;
        OpenCounts d2h;
        std::uint32_t range = 0;  ///< owning VaRange::id
    };

    static constexpr unsigned kChunkLog = 6;
    using Chunk = std::array<BlockAudit, std::size_t{1} << kChunkLog>;

    /** The record of open key @p key (its chunk exists). */
    const BlockAudit &
    recordAt(std::uint64_t key) const
    {
        return (*table_[key >> kChunkLog])[key & ((1u << kChunkLog) - 1)];
    }
    BlockAudit &
    recordAt(std::uint64_t key)
    {
        return (*table_[key >> kChunkLog])[key & ((1u << kChunkLog) - 1)];
    }

    /** Count one transfer of @p pages into @p counts; returns how
     *  many page transfers opened. */
    std::uint64_t open(OpenCounts &counts, const uvm::VaBlock &block,
                       const uvm::PageMask &pages);
    /** Close the open transfers of @p pages in @p counts; returns
     *  how many page transfers closed. */
    std::uint64_t take(OpenCounts &counts, const uvm::VaBlock &block,
                       const uvm::PageMask &pages);
    /** Close every open transfer in @p counts: returns the total,
     *  which holds only valid pages because only those move. */
    std::uint64_t takeAll(OpenCounts &counts);

    /** The table entry of @p range, named on first use. */
    RangeWaste &wasteOf(const uvm::VaRange &range);

    /** Close open transfers of the masked pages.
     *  @param required classify as required (else redundant, booked
     *         to the block's range as one dead cycle). */
    void close(const uvm::VaBlock &block, const uvm::PageMask &pages,
               bool required);
    /** Close every open transfer of the block at open key @p key. */
    void closeWhole(std::uint64_t key, bool required);
    /** Book @p h2d and @p d2h closed page transfers of @p audit. */
    void book(const BlockAudit &audit, std::uint64_t h2d,
              std::uint64_t d2h, bool required);

    /** Is bit @p key (blockIndex() - VaSpace::kFirstKey) of open_
     *  set? */
    bool
    isOpen(std::uint64_t key) const
    {
        return key / 64 < open_.size() && (open_[key / 64] >> key % 64) & 1;
    }

    /** Call @p fn(key) for every set bit of open_ in [first, end). */
    template <typename Fn>
    void forEachOpen(std::uint64_t first, std::uint64_t end, Fn fn) const;

    /** Chunk key >> kChunkLog holds the record of open key key;
     *  null until a block in it first transfers. */
    std::vector<std::unique_ptr<Chunk>> table_;
    /** Bit key set iff that block has an open transfer. */
    std::vector<std::uint64_t> open_;
    sim::Pool<Planes, 4> planes_;
    std::vector<RangeWaste> ranges_;
    sim::Bytes required_h2d_ = 0;
    sim::Bytes required_d2h_ = 0;
    sim::Bytes redundant_h2d_ = 0;
    sim::Bytes redundant_d2h_ = 0;
    sim::Bytes open_bytes_ = 0;
};

}  // namespace uvmd::trace

#endif  // UVMD_TRACE_AUDITOR_HPP
