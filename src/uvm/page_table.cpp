/**
 * @file
 * Mapping-cost bookkeeping.
 *
 * Mapping operations are batched per va_block in the real driver, so
 * the model charges a per-block cost regardless of how many 4 KB PTEs
 * the batch covers.  GPU unmapping is the expensive one: PTE clears
 * and TLB invalidations travel over the CPU-GPU interconnect and must
 * be acknowledged (Section 5.1) — this asymmetry is what makes eager
 * UvmDiscard costly when the discard was unnecessary.
 */

#include "sim/logging.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {

sim::SimTime
UvmDriver::mapOnGpu(VaBlock &block, const PageMask &pages, GpuId id,
                    sim::SimTime start)
{
    PageMask to_map = pages & ~block.mapped_gpu;
    if (to_map.none())
        return start;
    if (block.owner_gpu != id)
        sim::panic("mapOnGpu: mapping on a GPU that does not own the "
                   "chunk");
    dropSummary(block);
    block.mapped_gpu |= to_map;
    // A block mapped in one shot covering all of its valid pages gets
    // a single 2 MB PTE (Section 5.4).
    block.gpu_mapping_big =
        pages == block.valid && block.mapped_gpu == block.valid;
    ++counters_[UvmStat::gpu_map_ops];
    if (observer_)
        observer_->onMap(block, to_map, ProcessorId::gpu(id));
    return start + cfg_.gpu_map_cost;
}

sim::SimTime
UvmDriver::unmapFromGpu(VaBlock &block, const PageMask &pages,
                        sim::SimTime start)
{
    PageMask to_unmap = pages & block.mapped_gpu;
    if (to_unmap.none())
        return start;
    dropSummary(block);
    block.mapped_gpu &= ~to_unmap;
    if (block.gpu_mapping_big && block.mapped_gpu.any()) {
        // Partial unmap of a big mapping splits it into 4 KB PTEs.
        ++counters_[UvmStat::gpu_mapping_splits];
    }
    block.gpu_mapping_big = false;
    ++counters_[UvmStat::gpu_unmap_ops];
    if (observer_)
        observer_->onUnmap(block, to_unmap,
                           ProcessorId::gpu(block.owner_gpu));
    return start + cfg_.gpu_unmap_cost;
}

sim::SimTime
UvmDriver::mapOnCpu(VaBlock &block, const PageMask &pages,
                    sim::SimTime start)
{
    PageMask to_map = pages & ~block.mapped_cpu;
    if (to_map.none())
        return start;
    block.mapped_cpu |= to_map;
    ++counters_[UvmStat::cpu_map_ops];
    if (observer_)
        observer_->onMap(block, to_map, ProcessorId::cpu());
    return start + cfg_.cpu_map_cost;
}

sim::SimTime
UvmDriver::unmapFromCpu(VaBlock &block, const PageMask &pages,
                        sim::SimTime start)
{
    PageMask to_unmap = pages & block.mapped_cpu;
    if (to_unmap.none())
        return start;
    block.mapped_cpu &= ~to_unmap;
    ++counters_[UvmStat::cpu_unmap_ops];
    if (observer_)
        observer_->onUnmap(block, to_unmap, ProcessorId::cpu());
    return start + cfg_.cpu_unmap_cost;
}

}  // namespace uvmd::uvm
