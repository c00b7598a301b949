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
    if (range && range->resident_on == dst.gpuIndex()) {
        // Every block would be a pure recency touch (below): charge
        // them all and move the whole run to the MRU end at once.
        std::size_t n = range->blocks.size();
        t += static_cast<sim::SimDuration>(n) * cfg_.recency_touch_cost;
        counters_[UvmStat::prefetch_recency_only] += n;
        gpu(range->resident_on)
            .queues.usedQueue()
            .spliceToBack(range->blocks.front(), range->blocks.back());
        return t;
    }

    // One prefetch call is one transfer batch: runs spanning adjacent
    // blocks may coalesce into single DMA descriptors.
    TransferEngine::BatchScope batch(*xfer_);
    SummaryWalk walk(*this, range, dst.gpuIndex());

    walkBlocks(addr, size, [&](VaBlock &b, const PageMask &m) {
        if (dst.isGpu()) {
            GpuId id = dst.gpuIndex();
            PageMask on_gpu =
                (b.has_gpu_chunk && b.owner_gpu == id)
                    ? (m & b.resident_gpu)
                    : PageMask{};
            PageMask missing = m & ~on_gpu;

            if (missing.any()) {
                try {
                    t = migrateToGpu(b, missing, id,
                                     TransferCause::kPrefetch, t);
                    counters_[UvmStat::prefetch_migrated_pages] +=
                        missing.count();
                } catch (const GpuOomError &) {
                    // A prefetch is a hint: under the configured
                    // remote-access fallback an exhausted GPU just
                    // skips the migration (the later access will be
                    // served in place); otherwise surface the error.
                    if (!cfg_.faults.oom_remote_fallback ||
                        b.has_gpu_chunk)
                        throw;
                    ++counters_[UvmStat::oom_fallbacks];
                    if (observer_)
                        observer_->onFault(
                            FaultEvent::kOomFallback, b.base,
                            static_cast<std::uint32_t>(
                                missing.count()));
                    return;
                }
            }

            // Re-arm resident pages that are still marked discarded.
            PageMask rearm = on_gpu & b.discarded;
            if (rearm.any()) {
                counters_[UvmStat::prefetch_rearmed_pages] +=
                    rearm.count();
                if (!cfg_.track_fully_prepared || !b.fullyPrepared())
                    t = rezeroChunk(b, id, t);
                if ((rearm & ~b.mapped_gpu).any()) {
                    // Eagerly-discarded pages: PTEs must come back.
                    // (The map itself is charged below.)
                } else {
                    // Lazy path: a software bitmap update.
                    t += cfg_.block_op_cost;
                }
                PageMask to_clear = rearm;
                if (cfg_.bug == BugInjection::kLazyRearmKeepsDirty) {
                    // Deliberate verification bug: the lazy pages keep
                    // their cleared dirty bit despite the prefetch.
                    to_clear &= ~b.discarded_lazily;
                }
                clearDiscarded(b, to_clear);
                b.discarded_lazily &= ~to_clear;
            }

            t = mapOnGpu(b, m, id, t, /*big_ok=*/m == b.valid);

            if (missing.none() && rearm.none()) {
                // Pure recency update (Section 7.5.1: prefetches that
                // neither transfer nor prefault still cost time).
                t += cfg_.recency_touch_cost;
                ++counters_[UvmStat::prefetch_recency_only];
            }

            requeueAfterDiscardStateChange(b);
            touchUsed(b);
            walk.check(b);
        } else {
            // Prefetch to the CPU.
            PageMask on_gpu = m & b.resident_gpu;
            if (on_gpu.any())
                t = migrateToCpu(b, on_gpu, TransferCause::kPrefetch, t);
            PageMask unpop = m & ~b.populated();
            if (unpop.any()) {
                b.resident_cpu |= unpop;
                b.cpu_pages_present |= unpop;
                if (backing_.enabled()) {
                    mem::forEachSetPage(unpop, [&](std::uint32_t p) {
                        backing_.zeroPage(
                            b.base + p * mem::kSmallPageSize,
                            mem::CopySlot::kHost);
                    });
                }
                t += cfg_.cpu_fault_cost;
            }
            // Prefetching declares intent to use: pages are live again.
            clearDiscarded(b, m);
            b.discarded_lazily &= ~m;
            t = mapOnCpu(b, m & b.resident_cpu, t);
            requeueAfterDiscardStateChange(b);
        }
    });
    walk.finish();
    return t;
}

}  // namespace uvmd::uvm
