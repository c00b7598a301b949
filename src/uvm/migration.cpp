/**
 * @file
 * Residency movement between host and device (policy side).
 *
 * The skip rules of Section 5.3 live here and in eviction.cpp: pages
 * marked discarded are never copied over the interconnect —
 * host-to-device moves zero-fill a fresh GPU page instead, and
 * device-to-host moves (moveToCpu in eviction.cpp, also for the
 * discarded pages of a peer move) keep the stale pinned CPU page or
 * leave the page unpopulated.
 *
 * No transfer executes here directly: every movement is submitted to
 * the TransferEngine as a structured request, which schedules DMA
 * descriptors, accounts traffic, and notifies observers.
 */

#include "sim/logging.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {

namespace {

using interconnect::Direction;
using mem::CopySlot;

}  // namespace

sim::SimTime
UvmDriver::zeroGpuPages(VaBlock &block, const PageMask &pages,
                        GpuId id, sim::SimTime start)
{
    if (pages.none())
        return start;
    sim::Bytes bytes = block.pagesIn(pages) * mem::kSmallPageSize;
    sim::SimTime t = start + gpu(id).zero_engine.zeroCost(bytes);
    block.gpu_prepared |= pages;
    backing_.zeroPages(block.base, pages, CopySlot::kDevice);
    return t;
}

void
UvmDriver::zeroFillOnCpu(VaBlock &block, const PageMask &pages)
{
    block.resident_cpu |= pages;
    block.cpu_pages_present |= pages;
    backing_.zeroPages(block.base, pages, CopySlot::kHost);
}

sim::SimTime
UvmDriver::rezeroChunk(VaBlock &block, GpuId id, sim::SimTime start)
{
    ++counters_[UvmStat::chunk_rezero_ops];
    sim::SimTime t =
        start + gpu(id).zero_engine.zeroCost(mem::kBigPageSize);
    backing_.zeroPages(block.base,
                       block.valid & ~block.gpu_prepared &
                           block.resident_gpu,
                       CopySlot::kDevice);
    block.gpu_prepared |= block.valid;
    return t;
}

sim::SimTime
UvmDriver::migrateToGpu(VaBlock &block, const PageMask &pages,
                        GpuId id, TransferCause cause,
                        sim::SimTime start)
{
    sim::SimTime t = start;
    PageMask want = pages & block.valid;

    if (block.has_gpu_chunk && block.owner_gpu != id) {
        // The whole block changes owner (per-page residency split
        // across two GPUs is not modeled).
        t = migrateGpuToGpu(block, id, cause, t);
    }
    if (!block.has_gpu_chunk)
        t = allocChunk(block, id, t);

    PageMask need = want & ~block.resident_gpu;
    if (need.none())
        return t;

    PageMask transfer = need & block.resident_cpu & ~block.discarded;
    PageMask skipped = need & block.resident_cpu & block.discarded;
    PageMask fresh = need & ~block.populated();
    PageMask zeroed = skipped | fresh;

    if (transfer.any())
        t = copyToGpu(block, transfer, id, cause, t);

    if (zeroed.any()) {
        // Discarded or never-populated pages take a zero-filled GPU
        // page instead of a transfer (Section 5.3, second scenario).
        t = unmapFromCpu(block, zeroed, t);
        t = zeroGpuPages(block, zeroed, id, t);
        xfer_->skipped(block, skipped, Direction::kHostToDevice,
                       cause);
    }

    block.resident_cpu &= ~need;
    block.resident_gpu |= need;
    // Migration invalidates any remote (cross-link) mappings: the
    // host copy the peers were pointing at moved.
    block.remote_mapped = 0;
    // The CPU pages of migrated data stay pinned while the block is on
    // the GPU (Section 2.2); fresh pages never had one.
    //
    // A migration to the GPU only happens on a fault or a prefetch,
    // both of which tell the driver the pages may now hold new values
    // (Sections 5.1-5.2): the pages are live again.
    clearDiscarded(block, need);
    return t;
}

sim::SimTime
UvmDriver::fillBlockToGpu(VaBlock &b, GpuId id, TransferCause cause,
                          sim::SimTime start)
{
    // The steps migrateToGpu and mapOnGpu take for a fillable block
    // with a fresh chunk, less the ones that are no-ops for it.
    // RangeSummaryDifferential holds the fill to the same state,
    // events, costs and counters as the per-block paths.
    sim::SimTime t;
    if (b.resident_cpu.any()) {
        t = copyToGpu(b, b.valid, id, cause, start);
    } else {
        t = unmapFromCpu(b, b.valid, start);
        t = zeroGpuPages(b, b.valid, id, t);
    }
    // The residency update and the map as whole-mask assignments:
    // calling the general code here instead gave back about half of
    // the refill loop's measured gain (docs/performance.md, hot-path
    // item 11).
    b.resident_cpu.reset();
    b.resident_gpu = b.valid;
    b.remote_mapped = 0;
    b.mapped_gpu = b.valid;
    b.gpu_mapping_big = true;
    ++counters_[UvmStat::gpu_map_ops];
    if (observer_)
        observer_->onMap(b, b.valid, ProcessorId::gpu(id));
    return t + cfg_.gpu_map_cost;
}

sim::SimTime
UvmDriver::copyToGpu(VaBlock &block, const PageMask &pages, GpuId id,
                     TransferCause cause, sim::SimTime start)
{
    // Live data moves over the interconnect (CPU PTEs must go first
    // so the host cannot see a torn copy).
    sim::SimTime t = unmapFromCpu(block, pages, start);
    t = xfer_->submit({&block, pages, Direction::kHostToDevice, cause, id},
                      t);
    backing_.copyPages(block.base, pages, CopySlot::kHost,
                       CopySlot::kDevice);
    block.gpu_prepared |= pages;
    return t;
}

sim::SimTime
UvmDriver::migrateGpuToGpu(VaBlock &block, GpuId dst,
                           TransferCause cause, sim::SimTime start)
{
    GpuId src = block.owner_gpu;
    if (src == dst || !block.has_gpu_chunk)
        sim::panic("migrateGpuToGpu: bad source/destination");
    PageMask moving = block.resident_gpu;

    sim::SimTime t = unmapFromGpu(block, block.mapped_gpu, start);

    // Discarded pages do not travel (Section 5.3 applies to peer
    // moves too): they fall back to a stale pinned host copy or
    // become unpopulated, exactly as in a device-to-host migration.
    PageMask live = moving & ~block.discarded;
    if (PageMask skipped = moving & block.discarded; skipped.any())
        t = moveToCpu(block, skipped, cause, t, /*peer=*/true);

    // Under fault injection allocChunk can throw (true exhaustion);
    // secure a free destination chunk before the irreversible source
    // teardown so an OOM never strands the block mid-move.  Gated so
    // the fault-free path keeps its exact historical eviction timing.
    if (injector_.enabled())
        t = ensureFreeChunk(dst, t);

    // Hand the source chunk back and take one on the destination.
    block.resident_gpu.reset();
    block.gpu_prepared.reset();
    releaseChunk(block);
    t = allocChunk(block, dst, t);

    if (live.any()) {
        ++counters_[UvmStat::gpu_to_gpu_migrations];
        if (cfg_.peer_enabled) {
            // Direct peer copy over the NVLink-class fabric.  The
            // auditor tracks the moved value like any other transfer
            // (bucketed device-ward).
            t = xfer_->submit({&block, live,
                               Direction::kHostToDevice, cause, dst,
                               /*peer=*/true},
                              t);
        } else {
            // No peer access: bounce through host memory, paying
            // both PCIe directions.
            t = xfer_->submit({&block, live,
                               Direction::kDeviceToHost, cause, src},
                              t);
            t = xfer_->submit({&block, live,
                               Direction::kHostToDevice, cause, dst},
                              t);
        }
        // The device copy moves with the block (exclusive
        // residency keeps a single device slot).
        block.resident_gpu |= live;
        block.gpu_prepared |= live;
    }
    return t;
}

}  // namespace uvmd::uvm
