/**
 * @file
 * Interned stat handles for the driver's hot paths.
 *
 * StatGroup::counter(name) walks a std::map<std::string, Counter> on
 * every call — fine for tests and dumps, wrong for the per-operation
 * driver paths (~66 call sites, some of which also built a std::string
 * key per transfer).  DriverCounters and EngineCounters resolve every
 * hot counter exactly once at construction into sim::Counter
 * references; steady-state increments are a single add through the
 * reference.
 *
 * The handles are interned *hidden* (sim::StatGroup::internCounter):
 * a counter only appears in dumps/listings after its first write, so
 * pre-resolving the full set here is observationally identical to the
 * old lazy name-based registration — dumpStats/dumpStatsJson output
 * stays bit-identical.  Name-based counter()/get() lookup still works
 * everywhere for benches and tests.
 */

#ifndef UVMD_UVM_COUNTERS_HPP
#define UVMD_UVM_COUNTERS_HPP

#include <array>
#include <cstddef>
#include <string>

#include "sim/stats.hpp"
#include "uvm/observer.hpp"

namespace uvmd::uvm {

/** TransferCause arity, for per-cause counter arrays. */
inline constexpr std::size_t kNumTransferCauses = 4;

/** Index a per-cause array by cause. */
inline constexpr std::size_t
causeIndex(TransferCause cause)
{
    return static_cast<std::size_t>(cause);
}

/** The UvmDriver's per-operation counters (policy side). */
struct DriverCounters {
    explicit DriverCounters(sim::StatGroup &g)
        : managed_allocs(g.internCounter("managed_allocs")),
          managed_bytes(g.internCounter("managed_bytes")),
          managed_frees(g.internCounter("managed_frees")),
          gpu_map_ops(g.internCounter("gpu_map_ops")),
          gpu_mapping_splits(g.internCounter("gpu_mapping_splits")),
          gpu_unmap_ops(g.internCounter("gpu_unmap_ops")),
          cpu_map_ops(g.internCounter("cpu_map_ops")),
          cpu_unmap_ops(g.internCounter("cpu_unmap_ops")),
          gpu_fault_batches(g.internCounter("gpu_fault_batches")),
          gpu_faulted_blocks(g.internCounter("gpu_faulted_blocks")),
          gpu_faulted_pages(g.internCounter("gpu_faulted_pages")),
          cpu_fault_batches(g.internCounter("cpu_fault_batches")),
          lazy_contract_writes(g.internCounter("lazy_contract_writes")),
          oom_fallbacks(g.internCounter("oom_fallbacks")),
          fault_injected(g.internCounter("fault_injected")),
          pages_retired(g.internCounter("pages_retired")),
          evictions_unused(g.internCounter("evictions_unused")),
          evictions_discarded(g.internCounter("evictions_discarded")),
          evictions_used(g.internCounter("evictions_used")),
          prefetch_calls(g.internCounter("prefetch_calls")),
          prefetch_migrated_pages(
              g.internCounter("prefetch_migrated_pages")),
          prefetch_rearmed_pages(
              g.internCounter("prefetch_rearmed_pages")),
          prefetch_recency_only(
              g.internCounter("prefetch_recency_only")),
          discard_calls_eager(g.internCounter("discard_calls_eager")),
          discard_calls_lazy(g.internCounter("discard_calls_lazy")),
          discard_ignored_partial(
              g.internCounter("discard_ignored_partial")),
          discarded_pages(g.internCounter("discarded_pages")),
          chunk_rezero_ops(g.internCounter("chunk_rezero_ops")),
          gpu_to_gpu_migrations(
              g.internCounter("gpu_to_gpu_migrations")),
          mem_advise_calls(g.internCounter("mem_advise_calls")),
          access_counter_migrations(
              g.internCounter("access_counter_migrations")),
          remote_mappings(g.internCounter("remote_mappings")),
          remote_read_bytes(g.internCounter("remote_read_bytes")),
          remote_write_bytes(g.internCounter("remote_write_bytes")),
          blocks_walked(g.internCounter("blocks_walked"))
    {}

    sim::Counter &managed_allocs;
    sim::Counter &managed_bytes;
    sim::Counter &managed_frees;
    sim::Counter &gpu_map_ops;
    sim::Counter &gpu_mapping_splits;
    sim::Counter &gpu_unmap_ops;
    sim::Counter &cpu_map_ops;
    sim::Counter &cpu_unmap_ops;
    sim::Counter &gpu_fault_batches;
    sim::Counter &gpu_faulted_blocks;
    sim::Counter &gpu_faulted_pages;
    sim::Counter &cpu_fault_batches;
    sim::Counter &lazy_contract_writes;
    sim::Counter &oom_fallbacks;
    sim::Counter &fault_injected;
    sim::Counter &pages_retired;
    sim::Counter &evictions_unused;
    sim::Counter &evictions_discarded;
    sim::Counter &evictions_used;
    sim::Counter &prefetch_calls;
    sim::Counter &prefetch_migrated_pages;
    sim::Counter &prefetch_rearmed_pages;
    sim::Counter &prefetch_recency_only;
    sim::Counter &discard_calls_eager;
    sim::Counter &discard_calls_lazy;
    sim::Counter &discard_ignored_partial;
    sim::Counter &discarded_pages;
    sim::Counter &chunk_rezero_ops;
    sim::Counter &gpu_to_gpu_migrations;
    sim::Counter &mem_advise_calls;
    sim::Counter &access_counter_migrations;
    sim::Counter &remote_mappings;
    sim::Counter &remote_read_bytes;
    sim::Counter &remote_write_bytes;
    /** Blocks visited by the driver's per-block walks (access,
     *  prefetch, discard, host access, advise); whole-range fast
     *  paths add 0.  An exact count of host work. */
    sim::Counter &blocks_walked;
};

/**
 * The TransferEngine's counters (mechanism side), including the
 * per-direction × per-cause traffic matrix that used to be built as a
 * heap string key ("bytes_h2d." + cause) on every submit().
 */
struct EngineCounters {
    explicit EngineCounters(sim::StatGroup &g)
        : dma_descriptors(g.internCounter("dma_descriptors")),
          dma_descriptors_coalesced(
              g.internCounter("dma_descriptors_coalesced")),
          bytes_d2d(g.internCounter("bytes_d2d")),
          saved_h2d_bytes(g.internCounter("saved_h2d_bytes")),
          saved_d2h_bytes(g.internCounter("saved_d2h_bytes")),
          saved_d2d_bytes(g.internCounter("saved_d2d_bytes")),
          fault_injected(g.internCounter("fault_injected")),
          transfer_retries(g.internCounter("transfer_retries")),
          transfer_retry_ns(g.internCounter("transfer_retry_ns")),
          retries_raw(&g.internCounter("transfer_retries.raw"))
    {
        for (std::size_t c = 0; c < kNumTransferCauses; ++c) {
            const std::string cause =
                toString(static_cast<TransferCause>(c));
            bytes[0][c] = &g.internCounter("bytes_h2d." + cause);
            bytes[1][c] = &g.internCounter("bytes_d2h." + cause);
            retries_by_cause[c] =
                &g.internCounter("transfer_retries." + cause);
        }
    }

    sim::Counter &dma_descriptors;
    sim::Counter &dma_descriptors_coalesced;
    sim::Counter &bytes_d2d;
    sim::Counter &saved_h2d_bytes;
    sim::Counter &saved_d2h_bytes;
    sim::Counter &saved_d2d_bytes;
    sim::Counter &fault_injected;
    sim::Counter &transfer_retries;
    sim::Counter &transfer_retry_ns;
    /** [direction][cause] traffic bytes; direction indexes match
     *  interconnect::Direction (0 = H2D, 1 = D2H). */
    std::array<std::array<sim::Counter *, kNumTransferCauses>, 2> bytes;
    std::array<sim::Counter *, kNumTransferCauses> retries_by_cause;
    sim::Counter *retries_raw;
};

}  // namespace uvmd::uvm

#endif  // UVMD_UVM_COUNTERS_HPP
