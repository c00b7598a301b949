/**
 * @file
 * cudaMemAdvise-style hints and the cache-coherent remote-access mode
 * (paper Section 2.3).
 *
 * With SetAccessedBy (or PreferredLocation=cpu), a GPU touching
 * CPU-resident pages establishes a *remote mapping* instead of
 * migrating: every kernel access then crosses the interconnect at
 * link bandwidth.  This models NVLink/NVSwitch-class coherent systems
 * — and quantifies the paper's Section 2.3/3.2 argument that remote
 * access does not remove the need for migration (for reused data) nor
 * for the discard directive (for the data that does migrate).
 */

#include "sim/logging.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {

void
UvmDriver::memAdvise(mem::VirtAddr addr, sim::Bytes size,
                     MemAdvise advice, GpuId id)
{
    if (id < 0 || id >= 8)
        sim::fatal("memAdvise: GPU id out of range for the hint mask");
    std::uint8_t bit = static_cast<std::uint8_t>(1u << id);
    ++counters_[UvmStat::mem_advise_calls];

    walkBlocks(addr, size, [&](VaBlock &b, const PageMask &m) {
        (void)m;  // hints apply at block granularity
        switch (advice) {
          case MemAdvise::kSetAccessedBy:
            b.accessed_by |= bit;
            break;
          case MemAdvise::kUnsetAccessedBy:
            b.accessed_by &= ~bit;
            b.remote_mapped &= ~bit;
            break;
          case MemAdvise::kSetPreferredLocationCpu:
            b.prefer_cpu = true;
            break;
          case MemAdvise::kUnsetPreferredLocation:
            b.prefer_cpu = false;
            b.remote_mapped = 0;
            b.counter_migrated = false;
            b.remote_access_count = 0;
            break;
        }
    });
}

sim::SimTime
UvmDriver::remoteTouchBlock(VaBlock &block, const PageMask &m,
                            AccessKind kind, GpuId id,
                            sim::SimTime start)
{
    sim::SimTime t = start;
    std::uint8_t bit = static_cast<std::uint8_t>(1u << id);

    // Access counters (Volta-style): enough remote traffic to one
    // block overrides the hint — the data is evidently hot here.
    ++block.remote_access_count;
    if (cfg_.remote_access_migrate_threshold > 0 &&
        block.remote_access_count >=
            cfg_.remote_access_migrate_threshold) {
        block.counter_migrated = true;
        block.remote_mapped = 0;
        ++counters_[UvmStat::access_counter_migrations];
        t = migrateToGpu(block, m, id, TransferCause::kGpuFault, t);
        t = mapOnGpu(block, m, id, t, /*big_ok=*/m == block.valid);
        requeueAfterDiscardStateChange(block);
        notifyAccess(block, m, kind, ProcessorId::gpu(id));
        return t;
    }

    if (!(block.remote_mapped & bit)) {
        // First touch: establish the cross-link mapping (a fault on
        // hardware without ATS, a TLB fill with it — charge the map
        // cost either way).
        block.remote_mapped |= bit;
        ++counters_[UvmStat::remote_mappings];
        t += cfg_.gpu_map_cost;
    }

    // Every access moves the touched bytes over the interconnect:
    // reads pull device-ward, writes push host-ward.
    sim::Bytes bytes = m.count() * mem::kSmallPageSize;
    if (reads(kind)) {
        counters_[UvmStat::remote_read_bytes] += bytes;
        t = xfer_->rawTransfer(
            id, bytes, interconnect::Direction::kHostToDevice, t);
    }
    if (writes(kind)) {
        counters_[UvmStat::remote_write_bytes] += bytes;
        t = xfer_->rawTransfer(
            id, bytes, interconnect::Direction::kDeviceToHost, t);
    }
    notifyAccess(block, m, kind, ProcessorId::gpu(id));
    return t;
}

}  // namespace uvmd::uvm
