/**
 * @file
 * GPU kernel and host access paths — where faults happen.
 *
 * GPU accesses to unmapped pages raise replayable fault batches whose
 * servicing (and SM stall) is far more expensive than a prefetched
 * migration; this asymmetry drives the paper's "prefetch after
 * discard" guidance (Section 4.2) and the 3.9x no-prefetch slowdown
 * observed on Radix-sort (Section 7.3).
 *
 * The Section 5.2 contract is enforced here: a write to a
 * lazily-discarded page that was not re-armed with a prefetch leaves
 * the driver unaware that the page now holds live data, so the page
 * can still be reclaimed without a transfer — a real data-loss hazard
 * that the model reproduces (and warns about).
 */

#include "sim/logging.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {

sim::SimTime
UvmDriver::gpuAccess(GpuId id, const std::vector<Access> &accesses,
                     sim::SimTime start)
{
    // Injected ECC chunk failures surface at driver entry points.
    sim::SimTime t = maybeInjectChunkFault(start);
    // Faults raised while this kernel runs accumulate in the GPU's
    // replayable fault buffer and are drained in batches; the fill
    // level is shared across the kernel's whole access walk.  The
    // walk is also one transfer batch: fault migrations of adjacent
    // blocks may coalesce on the copy engines.
    TransferEngine::BatchScope batch(*xfer_);
    std::uint32_t batch_fill = 0;
    for (const Access &a : accesses) {
        VaRange *range = wholeRange(a.addr, a.size);
        if (range && range->residentOn(id)) {
            // Every block would take the TLB-hit path below, which
            // charges no time: one MRU splice and one run event do
            // the same work.
            gpu(id).queues.usedQueue().spliceToBack(
                range->blocks.front(), range->blocks.back());
            if (observer_)
                observer_->onAccessRun(range->blocks.data(),
                                       range->blocks.size(),
                                       reads(a.kind), writes(a.kind),
                                       ProcessorId::gpu(id));
            continue;
        }
        if (range) {
            t = faultRange(*range, a.kind, id, t, &batch_fill);
            continue;
        }
        walkBlocks(a.addr, a.size, [&](VaBlock &b, const PageMask &m) {
            t = gpuTouchBlock(b, m, a.kind, id, t, &batch_fill);
        });
    }
    return t;
}

sim::SimTime
UvmDriver::faultRange(VaRange &range, AccessKind kind, GpuId id,
                      sim::SimTime start, std::uint32_t *batch_fill)
{
    // The walk over whole blocks, without the walk.  Most blocks of a
    // range evicted since its last use are fillable; unless advised
    // to stay on the host (served remotely by gpuTouchBlock), each
    // faults, takes a chunk and is filled.  The rest take the walk's
    // per-block body.
    SummaryWalk walk(*this, &range, id);
    auto bit = static_cast<std::uint8_t>(1u << id);
    sim::SimTime t = start;
    for (VaBlock *b : range.blocks) {
        if (!b->fillable() || b->prefer_cpu || (b->accessed_by & bit)) {
            t = gpuTouchBlock(*b, b->valid, kind, id, t, batch_fill);
        } else {
            t = chargeFault(b->valid_pages, batch_fill, t);
            try {
                t = allocChunk(*b, id, t);
                // allocChunk queued the block at the used queue's MRU
                // end and its setQueue dropped the summary, so neither
                // a requeue nor a recency touch follows.
                t = fillBlockToGpu(*b, id, TransferCause::kGpuFault, t);
                notifyAccess(*b, b->valid, kind, ProcessorId::gpu(id));
            } catch (const GpuOomError &) {
                t = oomRemoteTouch(*b, b->valid, kind, id, t);
            }
        }
        walk.check(*b);
    }
    walk.finish();
    return t;
}

sim::SimTime
UvmDriver::chargeFault(std::uint32_t pages, std::uint32_t *batch_fill,
                       sim::SimTime start)
{
    // The block's faults enter the replayable fault buffer; a fresh
    // batch pays the drain/dedup/replay overhead once.
    sim::SimTime t = start;
    if (*batch_fill == 0) {
        ++counters_[UvmStat::gpu_fault_batches];
        t += cfg_.gpu_fault_cost;
    }
    if (++*batch_fill >= cfg_.fault_batch_capacity)
        *batch_fill = 0;
    ++counters_[UvmStat::gpu_faulted_blocks];
    counters_[UvmStat::gpu_faulted_pages] += pages;
    return t + cfg_.gpu_fault_service + cfg_.gpu_fault_stall;
}

sim::SimTime
UvmDriver::oomRemoteTouch(VaBlock &block, const PageMask &m,
                          AccessKind kind, GpuId id, sim::SimTime start)
{
    // Only a fully host-side block can be remote-served.
    if (!cfg_.faults.oom_remote_fallback || block.has_gpu_chunk)
        throw;
    sim::SimTime t = start;
    PageMask unpop = m & ~block.populated();
    if (unpop.any()) {
        // First touch under exhaustion: zero-filled host pages.
        zeroFillOnCpu(block, unpop);
        t += cfg_.cpu_fault_cost;
    }
    clearDiscarded(block, m);
    ++counters_[UvmStat::oom_fallbacks];
    if (observer_)
        observer_->onFault(FaultEvent::kOomFallback, block.base,
                           block.pagesIn(m));
    return remoteTouchBlock(block, m, kind, id, t);
}

sim::SimTime
UvmDriver::gpuTouchBlock(VaBlock &block, const PageMask &m,
                         AccessKind kind, GpuId id, sim::SimTime start,
                         std::uint32_t *batch_fill)
{
    sim::SimTime t = start;

    PageMask resident_here =
        (block.has_gpu_chunk && block.owner_gpu == id)
            ? (m & block.resident_gpu)
            : PageMask{};
    PageMask ok = resident_here & block.mapped_gpu;
    PageMask faulting = m & ~ok;

    // Remote-access mode (Section 2.3): an advised block whose pages
    // live on the host is accessed in place over the link instead of
    // migrating.
    bool advised = block.prefer_cpu || (block.accessed_by & (1u << id));
    if (advised && (m & ~block.resident_cpu).none())
        return remoteTouchBlock(block, m, kind, id, t);

    if (faulting.none()) {
        // TLB-hit path: no driver involvement.
        PageMask disc = m & block.discarded;
        if (disc.any() && writes(kind)) {
            ++counters_[UvmStat::lazy_contract_writes];
            if (cfg_.lazy_contract_warnings &&
                (disc & block.discarded_lazily).any()) {
                sim::warn("kernel writes lazily-discarded pages at " +
                          block.describe() +
                          " without the mandatory prefetch; the data "
                          "can be lost to reclamation (Section 5.2)");
            }
            // The hardware cannot report this write, so the driver's
            // discard state intentionally stays as-is.
        }
        touchUsed(block);
        notifyAccess(block, m, kind, ProcessorId::gpu(id));
        return t;
    }

    t = chargeFault(block.pagesIn(faulting), batch_fill, t);

    PageMask missing = m & ~resident_here;
    if (missing.any()) {
        try {
            t = migrateToGpu(block, missing, id,
                             TransferCause::kGpuFault, t);
        } catch (const GpuOomError &) {
            return oomRemoteTouch(block, m, kind, id, t);
        }
    }

    // Pages that stayed resident but were discarded and unmapped
    // (eager discard with a surviving chunk): the fault tells the
    // driver they may hold new values (Section 5.1).
    PageMask rearm = faulting & block.discarded & block.resident_gpu;
    if (rearm.any()) {
        if (needsRezero(block))
            t = rezeroChunk(block, id, t);
        clearDiscarded(block, rearm);
    }

    t = mapOnGpu(block, m, id, t);
    requeueAfterDiscardStateChange(block);
    touchUsed(block);
    notifyAccess(block, m, kind, ProcessorId::gpu(id));
    return t;
}

sim::SimTime
UvmDriver::hostAccess(mem::VirtAddr addr, sim::Bytes size,
                      AccessKind kind, sim::SimTime start)
{
    sim::SimTime t = start;
    // A host access walk is one transfer batch (write-backs of
    // adjacent GPU-resident blocks may coalesce).
    TransferEngine::BatchScope batch(*xfer_);
    walkBlocks(addr, size, [&](VaBlock &b, const PageMask &m) {
        PageMask on_gpu = m & b.resident_gpu;
        if (on_gpu.any())
            t = migrateToCpu(b, on_gpu, TransferCause::kCpuFault, t);
        // Compute population only after the migration: a discarded
        // page reclaimed without a surviving CPU copy arrives here
        // unpopulated and needs a zero-filled CPU page like any other
        // first touch.
        PageMask unpop = m & ~b.populated();
        PageMask unmapped = m & b.resident_cpu & ~b.mapped_cpu;
        PageMask faulted = on_gpu | unpop | unmapped;

        if (faulted.any()) {
            ++counters_[UvmStat::cpu_fault_batches];
            t += cfg_.cpu_fault_cost;
        }
        if (unpop.any())
            zeroFillOnCpu(b, unpop);

        // Faults are visible to the driver and re-arm the pages.
        clearDiscarded(b, faulted);

        PageMask disc = m & b.discarded;
        if (disc.any() && writes(kind)) {
            ++counters_[UvmStat::lazy_contract_writes];
            if (cfg_.lazy_contract_warnings &&
                (disc & b.discarded_lazily).any()) {
                sim::warn("host writes lazily-discarded pages at " +
                          b.describe() +
                          " without the mandatory prefetch");
            }
        }

        t = mapOnCpu(b, m & b.resident_cpu, t);
        notifyAccess(b, m, kind, ProcessorId::cpu());
    });
    return t;
}

}  // namespace uvmd::uvm
