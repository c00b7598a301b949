/**
 * @file
 * The driver's counter table, shared by UvmDriver (policy side) and
 * TransferEngine (mechanism side) and dumped under "uvm.".
 *
 * Each row is declared once in UVMD_UVM_STATS.  The per-cause traffic
 * and retry rows are written out in TransferCause order, then .raw,
 * so byCause(first, cause) finds a cause's row by offset.  This table is
 * the only traffic ledger: TransferEngine adds each moved byte (one
 * row: bytes_*.<cause>, bytes_d2d, bytes_*.raw for cudaMemcpyAsync or
 * remote_*_bytes), skipped byte (saved_*) and first-issue descriptor
 * (dma_descriptors, raw_transfers) once.  blocks_walked counts the
 * blocks visited by the driver's per-block walks (access,
 * prefetch, discard, host access, advise; whole-range fast paths add
 * 0), an exact count of the simulated run's walks.  A DL or radix
 * run that fast-forwards its steady state (workloads::runPeriods)
 * reports it for every period, computed ones included, like every
 * other row; its host work shows in RunResult::periods_simulated.
 */

#ifndef UVMD_UVM_COUNTERS_HPP
#define UVMD_UVM_COUNTERS_HPP

#include <cstddef>

#include "sim/stats.hpp"
#include "uvm/observer.hpp"

#define UVMD_UVM_STATS(X, X2)                                           \
    X(managed_allocs)                                                   \
    X(managed_bytes)                                                    \
    X(managed_frees)                                                    \
    X(gpu_map_ops)                                                      \
    X(gpu_mapping_splits)                                               \
    X(gpu_unmap_ops)                                                    \
    X(cpu_map_ops)                                                      \
    X(cpu_unmap_ops)                                                    \
    X(gpu_fault_batches)                                                \
    X(gpu_faulted_blocks)                                               \
    X(gpu_faulted_pages)                                                \
    X(cpu_fault_batches)                                                \
    X(lazy_contract_writes)                                             \
    X(oom_fallbacks)                                                    \
    X(fault_injected)                                                   \
    X(pages_retired)                                                    \
    X(evictions_unused)                                                 \
    X(evictions_discarded)                                              \
    X(evictions_used)                                                   \
    X(prefetch_calls)                                                   \
    X(prefetch_migrated_pages)                                          \
    X(prefetch_rearmed_pages)                                           \
    X(prefetch_recency_only)                                            \
    X(discard_calls_eager)                                              \
    X(discard_calls_lazy)                                               \
    X(discard_ignored_partial)                                          \
    X(discarded_pages)                                                  \
    X(chunk_rezero_ops)                                                 \
    X(gpu_to_gpu_migrations)                                            \
    X(mem_advise_calls)                                                 \
    X(remote_mappings)                                                  \
    X(remote_read_bytes)                                                \
    X(remote_write_bytes)                                               \
    X(blocks_walked)                                                    \
    X(dma_descriptors)                                                  \
    X(dma_descriptors_coalesced)                                        \
    X(raw_transfers)                                                    \
    X2(bytes_h2d, prefetch)                                             \
    X2(bytes_h2d, gpu_fault)                                            \
    X2(bytes_h2d, cpu_fault)                                            \
    X2(bytes_h2d, eviction)                                             \
    X2(bytes_h2d, raw)                                                  \
    X2(bytes_d2h, prefetch)                                             \
    X2(bytes_d2h, gpu_fault)                                            \
    X2(bytes_d2h, cpu_fault)                                            \
    X2(bytes_d2h, eviction)                                             \
    X2(bytes_d2h, raw)                                                  \
    X(bytes_d2d)                                                        \
    X(saved_h2d_bytes)                                                  \
    X(saved_d2h_bytes)                                                  \
    X(saved_d2d_bytes)                                                  \
    X(transfer_retries)                                                 \
    X(transfer_retry_ns)                                                \
    X2(transfer_retries, prefetch)                                      \
    X2(transfer_retries, gpu_fault)                                     \
    X2(transfer_retries, cpu_fault)                                     \
    X2(transfer_retries, eviction)                                      \
    X2(transfer_retries, raw)

namespace uvmd::uvm {

UVMD_STAT_TABLE(UvmStat, UvmStats, UVMD_UVM_STATS);

/** The row of @p cause in the per-cause block starting at @p first
 *  (a `*_prefetch` row). */
constexpr UvmStat
byCause(UvmStat first, TransferCause cause)
{
    return static_cast<UvmStat>(static_cast<std::size_t>(first) +
                                static_cast<std::size_t>(cause));
}

}  // namespace uvmd::uvm

#endif  // UVMD_UVM_COUNTERS_HPP
