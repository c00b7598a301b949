/**
 * @file
 * cudaMemPrefetchAsync semantics (Sections 2.1, 5.2).
 *
 * A prefetch to a processor migrates non-resident pages, prefaults
 * never-populated ones with zero-filled memory, and for pages that are
 * already resident merely updates access recency (Section 7.5.1).
 *
 * For discarded regions the prefetch is the re-arming operation:
 *  - after UvmDiscard, it re-establishes the eagerly destroyed PTEs
 *    (Section 5.1: "the cost of waiting for GPUs to destroy and
 *    reestablish PTEs is unavoidable");
 *  - after UvmDiscardLazy, it "simply sets the software dirty bits"
 *    (Section 5.2) — the mandatory notification before reuse.
 */

#include "sim/logging.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {

sim::SimTime
UvmDriver::prefetch(mem::VirtAddr addr, sim::Bytes size,
                    ProcessorId dst, sim::SimTime start)
{
    // Injected ECC chunk failures surface at driver entry points.
    sim::SimTime t = maybeInjectChunkFault(start);
    ++counters_[UvmStat::prefetch_calls];

    VaRange *range = dst.isGpu() ? wholeRange(addr, size) : nullptr;
    if (range && range->residentOn(dst.gpuIndex())) {
        // Every block would be a pure recency touch (below): charge
        // them all and move the whole run to the MRU end at once.
        std::size_t n = range->blocks.size();
        t += static_cast<sim::SimDuration>(n) * cfg_.recency_touch_cost;
        counters_[UvmStat::prefetch_recency_only] += n;
        gpu(dst.gpuIndex())
            .queues.usedQueue()
            .spliceToBack(range->blocks.front(), range->blocks.back());
        return t;
    }
    if (range && range->discardedOn(dst.gpuIndex()))
        return rearmDiscardedRange(*range, t);
    if (range)
        return refillRange(*range, dst.gpuIndex(), t);

    // One prefetch call is one transfer batch: runs spanning adjacent
    // blocks may coalesce into single DMA descriptors.
    TransferEngine::BatchScope batch(*xfer_);
    walkBlocks(addr, size, [&](VaBlock &b, const PageMask &m) {
        if (dst.isGpu()) {
            t = prefetchBlockToGpu(b, m, dst.gpuIndex(), t);
            return;
        }
        PageMask on_gpu = m & b.resident_gpu;
        if (on_gpu.any())
            t = migrateToCpu(b, on_gpu, TransferCause::kPrefetch, t);
        PageMask unpop = m & ~b.populated();
        if (unpop.any()) {
            zeroFillOnCpu(b, unpop);
            t += cfg_.cpu_fault_cost;
        }
        // Prefetching declares intent to use: pages are live again.
        clearDiscarded(b, m);
        t = mapOnCpu(b, m & b.resident_cpu, t);
        requeueAfterDiscardStateChange(b);
    });
    return t;
}

bool
UvmDriver::prefetchSkipsOom(const VaBlock &block, std::uint32_t pages)
{
    if (!cfg_.faults.oom_remote_fallback || block.has_gpu_chunk)
        return false;
    ++counters_[UvmStat::oom_fallbacks];
    if (observer_)
        observer_->onFault(FaultEvent::kOomFallback, block.base, pages);
    return true;
}

sim::SimTime
UvmDriver::prefetchBlockToGpu(VaBlock &b, const PageMask &m, GpuId id,
                              sim::SimTime start)
{
    sim::SimTime t = start;
    PageMask on_gpu = (b.has_gpu_chunk && b.owner_gpu == id)
                          ? (m & b.resident_gpu)
                          : PageMask{};
    PageMask missing = m & ~on_gpu;

    if (missing.any()) {
        try {
            t = migrateToGpu(b, missing, id, TransferCause::kPrefetch, t);
            counters_[UvmStat::prefetch_migrated_pages] +=
                b.pagesIn(missing);
        } catch (const GpuOomError &) {
            if (!prefetchSkipsOom(b, b.pagesIn(missing)))
                throw;
            return t;
        }
    }

    // Re-arm resident pages that are still marked discarded.
    PageMask rearm = on_gpu & b.discarded;
    if (rearm.any()) {
        counters_[UvmStat::prefetch_rearmed_pages] += b.pagesIn(rearm);
        if (needsRezero(b))
            t = rezeroChunk(b, id, t);
        // Lazy path: a software bitmap update.  Eagerly-discarded
        // pages need their PTEs back (the map is charged below).
        if ((rearm & ~b.mapped_gpu).none())
            t += cfg_.block_op_cost;
        PageMask to_clear = rearm;
        if (cfg_.bug == BugInjection::kLazyRearmKeepsDirty) {
            // Deliberate verification bug: the lazy pages keep their
            // cleared dirty bit despite the prefetch.
            to_clear &= ~b.discarded_lazily;
        }
        clearDiscarded(b, to_clear);
    }

    t = mapOnGpu(b, m, id, t);

    if (missing.none() && rearm.none()) {
        // Pure recency update (Section 7.5.1: prefetches that neither
        // transfer nor prefault still cost time).
        t += cfg_.recency_touch_cost;
        ++counters_[UvmStat::prefetch_recency_only];
    }

    requeueAfterDiscardStateChange(b);
    touchUsed(b);
    return t;
}

sim::SimTime
UvmDriver::rearmDiscardedRange(VaRange &range, sim::SimTime start)
{
    // Per block, exactly what prefetchBlockToGpu does for a block
    // whose valid pages are all resident and discarded on the GPU:
    // no migration and no recency charge, only the re-arm, the remap
    // (eager) and the requeue from the discarded FIFO to the MRU end.
    GpuId id = range.summary_gpu;
    bool lazy = range.state == RangeState::kDiscardedLazy;
    // The injected bug leaves lazily discarded pages discarded: the
    // blocks keep their state and the range stays discarded.
    bool keep = lazy && cfg_.bug == BugInjection::kLazyRearmKeepsDirty;
    Queues &q = gpu(id).queues;
    sim::SimTime t = start;
    for (VaBlock *b : range.blocks) {
        if (needsRezero(*b))
            t = rezeroChunk(*b, id, t);
        if (lazy)
            t += cfg_.block_op_cost;
        if (keep)
            continue;
        b->discarded.reset();
        b->discarded_lazily.reset();
        if (observer_)
            observer_->onDiscardStateChange(*b, b->valid, false);
        if (!lazy) {
            b->mapped_gpu = b->valid;
            b->gpu_mapping_big = true;
            ++counters_[UvmStat::gpu_map_ops];
            if (observer_)
                observer_->onMap(*b, b->valid, ProcessorId::gpu(id));
            t += cfg_.gpu_map_cost;
        }
        q.discardedQueue().remove(b);
        q.usedQueue().pushBack(b);
        if (observer_)
            observer_->onQueueMove(*b, mem::QueueKind::kDiscarded,
                                   mem::QueueKind::kUsed);
    }
    counters_[UvmStat::prefetch_rearmed_pages] += range.pageCount();
    if (!keep)
        range.state = RangeState::kResident;
    return t;
}

sim::SimTime
UvmDriver::refillRange(VaRange &range, GpuId id, sim::SimTime start)
{
    // The walk in prefetch() over whole blocks, without the walk.
    // Most blocks of an evicted range are fillable: they take a chunk
    // and are filled, the rest take the walk's per-block body.
    // prefetchBlockToGpu's requeue and recency touch are no-ops for a
    // filled block: allocChunk queued it at the used queue's MRU end.
    TransferEngine::BatchScope batch(*xfer_);
    SummaryWalk walk(*this, &range, id);
    sim::SimTime t = start;
    for (VaBlock *b : range.blocks) {
        if (!b->fillable()) {
            t = prefetchBlockToGpu(*b, b->valid, id, t);
        } else {
            try {
                t = allocChunk(*b, id, t);
                t = fillBlockToGpu(*b, id, TransferCause::kPrefetch, t);
                counters_[UvmStat::prefetch_migrated_pages] +=
                    b->valid_pages;
            } catch (const GpuOomError &) {
                if (!prefetchSkipsOom(*b, b->valid_pages))
                    throw;
            }
        }
        walk.check(*b);
    }
    walk.finish();
    return t;
}

}  // namespace uvmd::uvm
