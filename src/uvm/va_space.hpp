/**
 * @file
 * The unified virtual address space: managed ranges and their blocks.
 *
 * Managed allocations receive 2 MB-aligned virtual addresses from a
 * bump allocator (the simulation never reuses virtual addresses, which
 * keeps auditing unambiguous).  Because the bump allocator hands out
 * dense, monotonically increasing addresses, `addr / 2MB` is a dense
 * monotonic key: block lookup is a direct vector index (plus a
 * last-block cache for same-block streaks), not a hash probe.  Guard
 * gaps and destroyed ranges are nullptr holes in the index.  The
 * blocks themselves are slab-allocated from a sim::Arena, so range
 * creation costs one allocation per 64 blocks and destroyed blocks
 * recycle their slots.
 */

#ifndef UVMD_UVM_VA_SPACE_HPP
#define UVMD_UVM_VA_SPACE_HPP

#include <map>
#include <string>
#include <vector>

#include "sim/arena.hpp"
#include "sim/function.hpp"
#include "uvm/va_block.hpp"

namespace uvmd::uvm {

/**
 * What a VaRange summary asserts about every block of the range, on
 * the summary's GPU g.  In each state every valid page is resident on
 * g and the blocks sit next to each other, in address order, on one
 * of g's queues.
 */
enum class RangeState : std::uint8_t {
    kNone,            ///< no summary holds
    kResident,        ///< mapped on g, none discarded; used queue
    kDiscardedEager,  ///< all discarded, none mapped; discarded FIFO
    kDiscardedLazy,   ///< all discarded, still mapped on g
                      ///< (discarded_lazily == valid); discarded FIFO
};

struct VaRange {
    std::uint32_t id;
    mem::VirtAddr base;
    sim::Bytes size;
    std::string name;
    /** Arena-owned, in address order; destroyed with the range. */
    std::vector<VaBlock *> blocks;

    /**
     * Whole-range summary, owned by the driver: @ref state holds on
     * GPU @ref summary_gpu (meaningless while the state is kNone).
     * A whole-range touch of a resident range is one used-queue
     * splice; a whole-range discard of it, or a re-arming prefetch
     * of a discarded one, is one loop over `blocks` — none of them a
     * block walk.
     */
    RangeState state = RangeState::kNone;
    GpuId summary_gpu = -1;

    /** Valid pages over all blocks: the range starts on a block
     *  boundary, so its blocks' `valid` masks cover exactly the
     *  4 KB pages that [base, base+size) touches. */
    std::uint64_t
    pageCount() const
    {
        return (size + mem::kSmallPageSize - 1) / mem::kSmallPageSize;
    }

    bool
    residentOn(GpuId g) const
    {
        return state == RangeState::kResident && summary_gpu == g;
    }

    bool
    discardedOn(GpuId g) const
    {
        return (state == RangeState::kDiscardedEager ||
                state == RangeState::kDiscardedLazy) &&
               summary_gpu == g;
    }
};

class VaSpace
{
  public:
    /**
     * Create a managed range of @p size bytes.
     * @return the 2 MB-aligned base address.
     */
    mem::VirtAddr createRange(sim::Bytes size, std::string name);

    /**
     * Destroy the range based at @p base.
     * @pre base was returned by createRange and not yet destroyed.
     */
    void destroyRange(mem::VirtAddr base);

    /** Range containing @p addr, or nullptr. */
    VaRange *
    rangeOf(mem::VirtAddr addr)
    {
        VaBlock *block = blockOf(addr);
        return block ? block->range : nullptr;
    }

    /** Block containing @p addr, or nullptr if unmanaged. */
    VaBlock *
    blockOf(mem::VirtAddr addr)
    {
        // Same-block streaks (kernel access walks, poke/peek loops)
        // hit the one-entry cache; the subtraction is wrap-safe, so a
        // single unsigned compare covers the "addr below cached base"
        // case too.
        if (cached_block_ &&
            addr - cached_block_->base < mem::kBigPageSize)
            return cached_block_;
        // Addresses below the VA base underflow to a huge index and
        // fall out of the bounds check; guard gaps and destroyed
        // ranges are nullptr holes.
        std::uint64_t idx = addr / mem::kBigPageSize - kFirstKey;
        if (idx >= block_index_.size())
            return nullptr;
        VaBlock *block = block_index_[idx];
        if (block)
            cached_block_ = block;
        return block;
    }

    /**
     * Invoke @p fn for every block overlapping [addr, addr+size),
     * in address order, with the per-block page mask restricted to
     * the intersection of the span and the block's valid pages
     * (interior blocks get `valid` itself).
     * @pre the whole span lies within managed ranges.
     * @return the number of blocks visited.
     *
     * Takes a FunctionRef (not std::function): this runs under every
     * driver operation, and the non-owning view avoids a wrapper
     * construction per call.
     */
    std::size_t forEachBlock(mem::VirtAddr addr, sim::Bytes size,
                             sim::FunctionRef<void(VaBlock &,
                                                   const PageMask &)>
                                 fn);

    /** Invoke @p fn for every block of every range (invariant checks,
     *  whole-space statistics, eviction-candidate scans), in
     *  ascending address order regardless of hash layout. */
    void forEachBlockAll(sim::FunctionRef<void(VaBlock &)> fn);

    std::size_t blockCount() const { return live_blocks_; }

    /** Add every range (id, extent, summary) and every block's state
     *  (VaBlock::hashState) to @p d, in address order, with the bump
     *  allocator's next id and base.  Range names are labels only;
     *  the block index, lookup cache and arena follow from the
     *  ranges. */
    void hashState(sim::Digest &d) const;

    /** Dense-index key (VaBlock::blockIndex) of the first possible
     *  block, at the 1 TiB VA base; managed keys count up from it. */
    static constexpr std::uint64_t kFirstKey =
        (mem::VirtAddr{1} << 40) / mem::kBigPageSize;

  private:
    std::uint32_t next_range_id_ = 1;
    // Leave a guard gap between ranges so off-by-one accesses fault
    // loudly instead of touching a neighbouring allocation.
    mem::VirtAddr next_base_ = mem::VirtAddr{1} << 40;
    // Ordered by id, which is creation order and therefore (the bump
    // allocator never reuses addresses) ascending base address:
    // forEachBlockAll must be deterministic for eviction scans and
    // invariant dumps.
    // std::map nodes are stable, so VaBlock::range stays valid.
    std::map<std::uint32_t, VaRange> ranges_;
    /** Dense block index: slot i covers the 2 MB page at key
     *  kFirstKey + i.  Grows with the bump allocator's high-water
     *  mark; holes are nullptr. */
    std::vector<VaBlock *> block_index_;
    std::uint64_t live_blocks_ = 0;
    /** One-entry lookup cache; reset on destroyRange. */
    VaBlock *cached_block_ = nullptr;
    sim::Arena<VaBlock> arena_;
};

}  // namespace uvmd::uvm

#endif  // UVMD_UVM_VA_SPACE_HPP
