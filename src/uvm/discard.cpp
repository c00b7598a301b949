/**
 * @file
 * The discard directive: UvmDiscard and UvmDiscardLazy.
 *
 * UvmDiscard (Section 5.1) eagerly destroys every CPU and GPU mapping
 * of the target pages; a later access faults, telling the driver the
 * page may hold new values.  UvmDiscardLazy (Section 5.2) only flips
 * the software dirty bits (modelled as the `discarded` mask) and
 * relies on the mandatory prefetch before reuse.
 *
 * Granularity policy (Section 5.4): the directive prefers full 2 MB
 * blocks.  A partial range that would split a 2 MB GPU mapping is
 * ignored (counted in discard_ignored_partial) unless the
 * partial_discard_splits ablation switch is on.
 */

#include "sim/logging.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {

sim::SimTime
UvmDriver::discard(mem::VirtAddr addr, sim::Bytes size,
                   DiscardMode mode, sim::SimTime start)
{
    ++counters_[mode == DiscardMode::kEager
                    ? UvmStat::discard_calls_eager
                    : UvmStat::discard_calls_lazy];
    if (VaRange *range = wholeRange(addr, size);
        range && range->state == RangeState::kResident)
        return discardResidentRange(*range, mode, start);

    sim::SimTime t = start;
    walkBlocks(addr, size, [&](VaBlock &b, const PageMask &m) {
        bool full = m == b.valid;
        if (!full && !cfg_.partial_discard_splits &&
            b.gpu_mapping_big) {
            // Honouring this partial discard would split the 2 MB GPU
            // mapping; skip it (Section 5.4).
            ++counters_[UvmStat::discard_ignored_partial];
            return;
        }
        t = discardBlock(b, m, mode, t);
    });
    return t;
}

sim::SimTime
UvmDriver::discardBlock(VaBlock &block, const PageMask &pages,
                        DiscardMode mode, sim::SimTime start)
{
    sim::SimTime t = start;
    // Never-populated pages hold no data; discarding them is a no-op.
    PageMask target = pages & block.populated();
    if (target.none())
        return t + cfg_.block_op_cost;

    if (observer_)
        observer_->onDiscard(block, target);
    counters_[UvmStat::discarded_pages] += block.pagesIn(target);

    if (mode == DiscardMode::kEager) {
        t = unmapFromGpu(block, target, t);
        t = unmapFromCpu(block, target, t);
        block.remote_mapped = 0;  // eager unmap covers remote PTEs
        if (cfg_.bug == BugInjection::kSilentDirtyBitChange)
            block.discarded |= target;  // deliberate: no observer event
        else
            markDiscarded(block, target);
        block.discarded_lazily &= ~target;
    } else {
        // Lazy mode only defers the *GPU* unmapping (the hardware
        // cannot report re-dirtying).  Host page tables have dirty
        // bits, so the CPU side is write-protected/unmapped so a
        // host write after the discard still faults and re-arms the
        // pages — otherwise the Section 4.1 guarantee ("a new value
        // written after the discard ... is guaranteed to be seen")
        // would not hold for host writes.
        t = unmapFromCpu(block, target, t);
        markDiscarded(block, target);
        block.discarded_lazily |= target & block.resident_gpu;
        t += cfg_.block_op_cost;
    }

    requeueAfterDiscardStateChange(block);
    return t;
}

sim::SimTime
UvmDriver::discardResidentRange(VaRange &range, DiscardMode mode,
                                sim::SimTime start)
{
    // Per block, exactly what discardBlock and the requeue do to a
    // block whose valid pages are all resident, mapped and live on
    // the range's GPU (nothing is CPU-mapped), with the same events
    // in the same order.  The used-queue run moves, in address order,
    // to the tail of the discarded FIFO.
    GpuId id = range.summary_gpu;
    bool eager = mode == DiscardMode::kEager;
    // The injected bugs, as in discardBlock: an eager discard that
    // reports no state change, and blocks left on the used queue.
    bool silent = cfg_.bug == BugInjection::kSilentDirtyBitChange;
    bool requeue = requeuesDiscarded();
    Queues &q = gpu(id).queues;
    for (VaBlock *b : range.blocks) {
        if (observer_)
            observer_->onDiscard(*b, b->valid);
        if (eager) {
            b->mapped_gpu.reset();
            b->gpu_mapping_big = false;
            b->remote_mapped = 0;
            b->discarded_lazily.reset();
            if (observer_)
                observer_->onUnmap(*b, b->valid, ProcessorId::gpu(id));
        } else {
            b->discarded_lazily = b->valid;
        }
        b->discarded = b->valid;
        if (observer_ && !(eager && silent))
            observer_->onDiscardStateChange(*b, b->valid, true);
        if (requeue) {
            q.usedQueue().remove(b);
            q.discardedQueue().pushBack(b);
            if (observer_)
                observer_->onQueueMove(*b, mem::QueueKind::kUsed,
                                       mem::QueueKind::kDiscarded);
        }
    }
    std::uint64_t n = range.blocks.size();
    counters_[UvmStat::discarded_pages] += range.pageCount();
    if (eager)
        counters_[UvmStat::gpu_unmap_ops] += n;
    range.state = !requeue ? RangeState::kNone
                  : eager  ? RangeState::kDiscardedEager
                           : RangeState::kDiscardedLazy;
    return start + static_cast<sim::SimDuration>(n) *
                       (eager ? cfg_.gpu_unmap_cost : cfg_.block_op_cost);
}

void
UvmDriver::requeueAfterDiscardStateChange(VaBlock &block)
{
    if (!block.has_gpu_chunk)
        return;
    if (block.allGpuResidentDiscarded() && requeuesDiscarded()) {
        // Fully-discarded chunks join the discarded FIFO.  Re-discards
        // of a block already there keep its FIFO position (setQueue
        // no-ops; the queue maximizes time-to-reclaim, Section 5.5).
        setQueue(block, mem::QueueKind::kDiscarded);
    } else if (block.resident_gpu.any()) {
        setQueue(block, mem::QueueKind::kUsed);
    } else {
        setQueue(block, mem::QueueKind::kUnused);
    }
}

}  // namespace uvmd::uvm
