/**
 * @file
 * The eviction process and chunk lifecycle (Sections 5.5-5.6).
 *
 * Allocation pops the free queue; when it is empty the eviction
 * process reclaims, in order:
 *
 *   1. an *unused* chunk (leftover, no transfer, no unmap);
 *   2. a *discarded* chunk (no transfer; lazily-discarded blocks
 *      still pay the deferred unmap cost — Section 5.6);
 *   3. the LRU *used* chunk (swap live pages out to the host).
 *
 * Step 2 is this paper's addition and is gated by the
 * discard_queue_enabled ablation switch.
 */

#include "sim/logging.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {

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
    for (;;) {
        reportProgress("alloc-chunk-evict", t);
        if (!g.allocator.tryAllocChunk()) {
            std::optional<sim::SimTime> evicted = evictOne(id, t);
            if (!evicted)
                throw GpuOomError(id);
            t = *evicted;
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
            std::optional<sim::SimTime> evicted = evictOne(id, t);
            if (evicted)
                t = *evicted;
            continue;
        }
        break;
    }
    block.has_gpu_chunk = true;
    block.owner_gpu = id;
    block.alloc_ordinal = next_alloc_ordinal_++;
    block.gpu_prepared.reset();
    block.gpu_mapping_big = false;
    setQueue(block, mem::QueueKind::kUsed);
    return t;
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
    setQueue(block, mem::QueueKind::kNone);
    g.allocator.freeChunk();
    block.has_gpu_chunk = false;
    block.owner_gpu = -1;
    block.gpu_prepared.reset();
    block.gpu_mapping_big = false;
}

void
UvmDriver::chunkToUnused(VaBlock &block)
{
    if (!block.has_gpu_chunk || block.resident_gpu.any())
        sim::panic("chunkToUnused: block not drained");
    setQueue(block, mem::QueueKind::kUnused);
}

sim::SimTime
UvmDriver::ensureFreeChunk(GpuId id, sim::SimTime start)
{
    GpuState &g = gpu(id);
    sim::SimTime t = start;
    while (g.allocator.freeChunks() == 0) {
        reportProgress("ensure-free-chunk", t);
        std::optional<sim::SimTime> evicted = evictOne(id, t);
        if (!evicted)
            throw GpuOomError(id);
        t = *evicted;
    }
    return t;
}

std::optional<sim::SimTime>
UvmDriver::evictOne(GpuId id, sim::SimTime start)
{
    GpuState &g = gpu(id);

    // 1. Leftover chunks: reclaim directly.  (releaseChunk unlinks —
    // via setQueue so the queue-move event is seen — so the head is
    // only peeked, not popped.)
    if (VaBlock *b = g.queues.unusedQueue().front()) {
        releaseChunk(*b);
        ++counters_[UvmStat::evictions_unused];
        return start + cfg_.reclaim_cost;
    }

    // 2. Discarded chunks: reclaim without a transfer (Section 5.5).
    if (cfg_.discard_queue_enabled) {
        if (VaBlock *b = g.queues.discardedQueue().front()) {
            sim::SimTime t = start;
            // Lazily-discarded blocks kept their mappings; the unmap
            // is deferred to this point (Section 5.6).
            t = unmapFromGpu(*b, b->mapped_gpu, t);
            PageMask skipped = b->resident_gpu;
            xfer_->skipped(*b, skipped,
                           interconnect::Direction::kDeviceToHost,
                           TransferCause::kEviction);
            backing_.dropPages(b->base, skipped, mem::CopySlot::kDevice);
            // Pages with a surviving pinned CPU copy fall back to it
            // (and stay discarded); the rest become unpopulated.
            b->resident_gpu.reset();
            b->gpu_prepared.reset();
            b->resident_cpu |= skipped & b->cpu_pages_present;
            clearDiscarded(*b, skipped & ~b->cpu_pages_present);
            b->discarded_lazily.reset();
            releaseChunk(*b);
            ++counters_[UvmStat::evictions_discarded];
            return t + cfg_.reclaim_cost;
        }
    }

    // 3. A used chunk: swap out to host memory.  The paper's driver
    // picks the (pseudo-)LRU victim; the policy switch exists to
    // quantify that choice.
    if (VaBlock *b = selectUsedVictim(id)) {
        ++counters_[UvmStat::evictions_used];
        return evictBlock(*b, start);
    }

    // Memory truly exhausted: let the caller run its fallbacks
    // (remote access, error surfacing) instead of dying here.
    return std::nullopt;
}

VaBlock *
UvmDriver::selectUsedVictim(GpuId id)
{
    auto &used = gpu(id).queues.usedQueue();
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
UvmDriver::evictBlock(VaBlock &block, sim::SimTime start)
{
    sim::SimTime t = migrateToCpu(block, block.resident_gpu,
                                  TransferCause::kEviction, start);
    // migrateToCpu drained the block onto the unused queue; finish the
    // reclamation.
    releaseChunk(block);
    return t;
}

sim::SimTime
UvmDriver::maybeInjectChunkFault(sim::SimTime start)
{
    if (!injector_.enabled() || cfg_.faults.chunk_retire_rate <= 0.0)
        return start;
    // Collect candidates before rolling: when nothing can be retired
    // (no chunks, or the retire floor would be crossed) no roll
    // happens at all, keeping the injector's tally reconciled with
    // the retirements actually applied.
    std::vector<VaBlock *> candidates;
    va_space_.forEachBlockAll([&](VaBlock &b) {
        if (!b.has_gpu_chunk)
            return;
        const mem::ChunkAllocator &alloc = gpu(b.owner_gpu).allocator;
        if (alloc.totalChunks() - alloc.reservedChunks() -
                alloc.retiredChunks() <=
            cfg_.faults.chunk_retire_floor)
            return;
        candidates.push_back(&b);
    });
    if (candidates.empty() || !injector_.chunkFails())
        return start;
    VaBlock &victim =
        *candidates[injector_.pickVictim(candidates.size())];
    return retireChunk(victim, start);
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
    setQueue(block, mem::QueueKind::kNone);
    g.allocator.retireAllocatedChunk();
    block.has_gpu_chunk = false;
    block.owner_gpu = -1;
    block.gpu_prepared.reset();
    block.gpu_mapping_big = false;
    ++counters_[UvmStat::fault_injected];
    counters_[UvmStat::pages_retired] += mem::kPagesPerBlock;
    if (observer_)
        observer_->onFault(FaultEvent::kChunkRetired, block.base,
                           mem::kPagesPerBlock);
    return t + cfg_.reclaim_cost;
}

}  // namespace uvmd::uvm
