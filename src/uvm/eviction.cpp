/**
 * @file
 * The eviction process and chunk lifecycle (Sections 5.5-5.6), and
 * the device-to-host half of the Section 5.3 skip rules.
 *
 * Allocation pops the free queue; when it is empty one reclaim step
 * tears down a victim, in order:
 *
 *   1. an *unused* chunk (leftover, no transfer, no unmap);
 *   2. a *discarded* chunk (no transfer; lazily-discarded blocks
 *      still pay the deferred unmap cost — Section 5.6);
 *   3. the LRU *used* chunk (swap live pages out to the host),
 *
 * and hands the victim's chunk straight to the new block.
 *
 * Step 2 is this paper's addition and is gated by the
 * discard_queue_enabled ablation switch.
 *
 * moveToCpu is the one body of the device-to-host skip rules: both
 * victims, migrateToCpu and retireChunk run it, and so do the
 * discarded pages of a peer migration.
 */

#include "sim/logging.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {

namespace {

using interconnect::Direction;
using mem::CopySlot;
using mem::QueueKind;

}  // namespace

sim::SimTime
UvmDriver::allocChunk(VaBlock &block, GpuId id, sim::SimTime start)
{
    if (block.has_gpu_chunk)
        sim::panic("allocChunk: block already has a chunk");
    GpuState &g = gpu(id);
    sim::SimTime t = start;
    // One allocation's evictions form one transfer batch: swap-outs
    // of adjacent victim blocks may coalesce on the D2H engines.
    TransferEngine::BatchScope batch(*xfer_);
    int injected_failures = 0;
    // A reclaimed victim's chunk, still counted as allocated, that
    // the next iteration hands to @p block.
    bool reclaimed = false;
    for (;;) {
        reportProgress("alloc-chunk-evict", t);
        if (reclaimed) {
            g.allocator.handOverChunk();
        } else if (!g.allocator.tryAllocChunk()) {
            if (!reclaimChunk(g, t))
                throw GpuOomError(id);
            reclaimed = true;
            continue;
        }
        // Transient injected allocation failure: give the chunk back
        // and run the bounded evict-retry loop once more.
        if (injected_failures < cfg_.faults.alloc_max_retries &&
            injector_.allocFails()) {
            g.allocator.freeChunk();
            ++injected_failures;
            ++counters_[UvmStat::fault_injected];
            if (observer_)
                observer_->onFault(FaultEvent::kAllocFail, block.base,
                                   0);
            t += cfg_.reclaim_cost;
            reclaimed = reclaimChunk(g, t);
            continue;
        }
        break;
    }
    block.has_gpu_chunk = true;
    block.owner_gpu = id;
    block.alloc_ordinal = next_alloc_ordinal_++;
    block.gpu_prepared.reset();
    block.gpu_mapping_big = false;
    setQueue(block, QueueKind::kUsed);
    return t;
}

bool
UvmDriver::reclaimChunk(GpuState &g, sim::SimTime &t)
{
    // The queue the victim is reported to leave for none: a used
    // victim drains onto unused first.
    QueueKind from;
    VaBlock *b;
    if ((b = g.queues.unusedQueue().front())) {
        // 1. Leftover chunk: nothing to tear down.
        from = QueueKind::kUnused;
        ++counters_[UvmStat::evictions_unused];
        t += cfg_.reclaim_cost;
    } else if (cfg_.discard_queue_enabled &&
               (b = g.queues.discardedQueue().front())) {
        // 2. Discarded chunk: every resident page is discarded, so
        // moveToCpu moves none of them (Section 5.5).  Lazily-
        // discarded blocks kept their mappings; the unmap is deferred
        // to this point (Section 5.6).
        from = QueueKind::kDiscarded;
        ++counters_[UvmStat::evictions_discarded];
        t = moveToCpu(*b, b->resident_gpu, TransferCause::kEviction, t) +
            cfg_.reclaim_cost;
    } else if ((b = selectUsedVictim(g))) {
        // 3. Used chunk: swap its pages out to host memory.  A drained
        // chunk passes through the unused queue on its way out.
        from = QueueKind::kUsed;
        ++counters_[UvmStat::evictions_used];
        if (b->resident_gpu.any()) {
            t = moveToCpu(*b, b->resident_gpu, TransferCause::kEviction, t);
            if (observer_)
                observer_->onQueueMove(*b, QueueKind::kUsed,
                                       QueueKind::kUnused);
            from = QueueKind::kUnused;
        }
    } else {
        // Memory truly exhausted: let the caller run its fallbacks
        // (remote access, error surfacing) instead of dying here.
        return false;
    }
    if (b->resident_gpu.any() || b->mapped_gpu.any())
        sim::panic("reclaimChunk: victim not drained");
    dropSummary(*b);
    g.queues.unlink(b);
    if (observer_)
        observer_->onQueueMove(*b, from, QueueKind::kNone);
    b->dropChunk();
    return true;
}

void
UvmDriver::releaseChunk(VaBlock &block)
{
    if (!block.has_gpu_chunk)
        sim::panic("releaseChunk: block has no chunk");
    if (block.resident_gpu.any())
        sim::panic("releaseChunk: chunk still holds resident pages");
    if (block.mapped_gpu.any())
        sim::panic("releaseChunk: chunk still mapped");
    GpuState &g = gpu(block.owner_gpu);
    setQueue(block, QueueKind::kNone);
    g.allocator.freeChunk();
    block.dropChunk();
}

sim::SimTime
UvmDriver::ensureFreeChunk(GpuId id, sim::SimTime start)
{
    GpuState &g = gpu(id);
    sim::SimTime t = start;
    while (g.allocator.freeChunks() == 0) {
        reportProgress("ensure-free-chunk", t);
        if (!reclaimChunk(g, t))
            throw GpuOomError(id);
        g.allocator.freeChunk();
    }
    return t;
}

VaBlock *
UvmDriver::selectUsedVictim(GpuState &g)
{
    auto &used = g.queues.usedQueue();
    if (used.empty())
        return nullptr;
    switch (cfg_.eviction_policy) {
      case EvictionPolicy::kLru:
        // Touches move blocks to the tail, so the head is coldest.
        return used.front();
      case EvictionPolicy::kFifo: {
        // Oldest chunk allocation, ignoring recency (O(n) scan —
        // acceptable for the ablation configurations).
        VaBlock *victim = used.front();
        for (VaBlock *b = used.front(); b; b = used.next(b)) {
            if (b->alloc_ordinal < victim->alloc_ordinal)
                victim = b;
        }
        return victim;
      }
      case EvictionPolicy::kRandom: {
        std::uint64_t skip = eviction_rng_.below(used.size());
        VaBlock *b = used.front();
        while (skip-- > 0)
            b = used.next(b);
        return b;
      }
    }
    return used.front();
}

sim::SimTime
UvmDriver::migrateToCpu(VaBlock &block, const PageMask &pages,
                        TransferCause cause, sim::SimTime start)
{
    PageMask moving = pages & block.resident_gpu;
    if (moving.none())
        return start;
    sim::SimTime t = moveToCpu(block, moving, cause, start);
    // A drained chunk goes to the unused queue for cheap reclaim.
    if (block.resident_gpu.none())
        setQueue(block, QueueKind::kUnused);
    return t;
}

sim::SimTime
UvmDriver::moveToCpu(VaBlock &block, PageMask moving,
                     TransferCause cause, sim::SimTime start, bool peer)
{
    GpuId id = block.owner_gpu;
    sim::SimTime t = unmapFromGpu(block, moving, start);

    PageMask live = moving & ~block.discarded;

    if (live.any()) {
        t = xfer_->submit({&block, live, Direction::kDeviceToHost,
                           cause, id},
                          t);
        backing_.copyPages(block.base, live, CopySlot::kDevice,
                           CopySlot::kHost);
        block.cpu_pages_present |= live;
    }

    // Discarded pages are reclaimed without a transfer (Section 5.3,
    // first scenario).  Pages with a surviving pinned CPU copy fall
    // back to that stale copy ("old data values", Section 4.1); pages
    // without one become unpopulated and will read as zeros.
    xfer_->skipped(block, moving & block.discarded, Direction::kDeviceToHost,
                   cause, peer);

    backing_.dropPages(block.base, moving, CopySlot::kDevice);

    block.resident_gpu &= ~moving;
    block.gpu_prepared &= ~moving;
    block.discarded_lazily &= ~moving;
    // The live pages have their CPU copy by now.
    PageMask gained = moving & block.cpu_pages_present;
    if (cfg_.bug == BugInjection::kDropEvictedCpuCopy &&
        cause == TransferCause::kEviction) {
        // Deliberate verification bug: evicted live pages lose their
        // CPU residency (data loss the oracle must flag).
        gained &= ~live;
    }
    block.resident_cpu |= gained;
    // Skipped pages with no CPU copy leave populated() — a later read
    // zero-fills them on first touch — and shed their discard state
    // (unpopulated memory is implicitly contentless).  Pages falling
    // back to a stale CPU copy stay discarded, so a later migration
    // back to the GPU can skip the transfer again.
    clearDiscarded(block, moving & ~block.cpu_pages_present);
    return t;
}

sim::SimTime
UvmDriver::maybeInjectChunkFault(sim::SimTime start)
{
    if (!injector_.enabled() || cfg_.faults.chunk_retire_rate <= 0.0)
        return start;
    // Count candidates before rolling: when nothing can be retired
    // (no chunks, or the retire floor would be crossed) no roll
    // happens at all, keeping the injector's tally reconciled with
    // the retirements actually applied.  Only a hit walks again, to
    // the picked candidate.
    auto candidate = [&](const VaBlock &b) {
        if (!b.has_gpu_chunk)
            return false;
        const mem::ChunkAllocator &alloc = gpu(b.owner_gpu).allocator;
        return alloc.totalChunks() - alloc.reservedChunks() -
                   alloc.retiredChunks() >
               cfg_.faults.chunk_retire_floor;
    };
    std::uint64_t candidates = 0;
    va_space_.forEachBlockAll(
        [&](VaBlock &b) { candidates += candidate(b); });
    if (candidates == 0 || !injector_.chunkFails())
        return start;
    std::uint64_t pick = injector_.pickVictim(candidates);
    VaBlock *victim = nullptr;
    va_space_.forEachBlockAll([&](VaBlock &b) {
        if (!victim && candidate(b) && pick-- == 0)
            victim = &b;
    });
    return retireChunk(*victim, start);
}

sim::SimTime
UvmDriver::retireChunk(VaBlock &block, sim::SimTime start)
{
    if (!block.has_gpu_chunk)
        sim::panic("retireChunk: block has no chunk");
    GpuState &g = gpu(block.owner_gpu);
    // ECC-style failure: live pages migrate off the bad chunk;
    // discarded and unused pages drop with no transfer (the
    // Section 5.5 reclaim semantics apply unchanged).
    TransferEngine::BatchScope batch(*xfer_);
    sim::SimTime t = migrateToCpu(block, block.resident_gpu,
                                  TransferCause::kEviction, start);
    setQueue(block, QueueKind::kNone);
    g.allocator.retireAllocatedChunk();
    block.dropChunk();
    ++counters_[UvmStat::fault_injected];
    counters_[UvmStat::pages_retired] += mem::kPagesPerBlock;
    if (observer_)
        observer_->onFault(FaultEvent::kChunkRetired, block.base,
                           mem::kPagesPerBlock);
    return t + cfg_.reclaim_cost;
}

}  // namespace uvmd::uvm
