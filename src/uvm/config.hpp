/**
 * @file
 * Driver-model configuration: capacities, operation costs, and the
 * ablation switches for the design choices discussed in the paper.
 *
 * The cost constants are calibration parameters, chosen so that the
 * model reproduces the paper's measured relationships (Section 7):
 * the Figure 4 bandwidth curve, the Table 2 API costs, the ~1.2x
 * eager-unmap overhead on Radix-sort at <100% oversubscription, the
 * 3.9x no-prefetch fault storm, and the 16% UvmDiscard training-
 * throughput degradation when everything fits.  DESIGN.md Section 6
 * records the anchors.
 */

#ifndef UVMD_UVM_CONFIG_HPP
#define UVMD_UVM_CONFIG_HPP

#include <cstdint>

#include "sim/fault_injector.hpp"
#include "sim/time.hpp"

namespace uvmd::uvm {

/** Which discard implementation a discard call uses (Section 5). */
enum class DiscardMode {
    kEager,  ///< UvmDiscard: destroy mappings now (Section 5.1)
    kLazy,   ///< UvmDiscardLazy: clear software dirty bits (Section 5.2)
};

const char *toString(DiscardMode mode);

/** Victim selection among *used* chunks (the paper's driver uses a
 *  pseudo-LRU queue, Section 5.5; the alternatives quantify how much
 *  that choice matters). */
enum class EvictionPolicy : std::uint8_t {
    kLru,     ///< least-recently-used (the driver's behaviour)
    kFifo,    ///< oldest allocation first (no recency updates)
    kRandom,  ///< uniform random victim
};

const char *toString(EvictionPolicy policy);

/**
 * Deliberate driver mutations for exercising the verification oracle
 * (tests and the fuzz harness only; see docs/verification.md).  Each
 * value enables one tiny guarded deviation from correct behaviour
 * that the oracle must detect.  kNone (the default) leaves the driver
 * untouched — all bug branches compile to dead code paths guarded by
 * this enum, so production configurations are unaffected.
 */
enum class BugInjection : std::uint8_t {
    kNone,                  ///< correct driver (default)
    kLazyRearmKeepsDirty,   ///< prefetch skips the dirty-bit clear on
                            ///< lazily-discarded resident pages
    kSilentDirtyBitChange,  ///< eager discard flips the dirty bit
                            ///< without telling the observer spine
    kSkipDiscardRequeue,    ///< fully-discarded blocks stay on the
                            ///< used LRU instead of the discarded FIFO
    kDropEvictedCpuCopy,    ///< eviction forgets to mark evicted pages
                            ///< CPU-resident (data loss)
};

const char *toString(BugInjection bug);

struct UvmConfig {
    /** Usable framebuffer bytes per GPU. */
    sim::Bytes gpu_memory = static_cast<sim::Bytes>(11.77 * sim::kGiB);

    /** Number of GPUs behind the driver. */
    int num_gpus = 1;

    /** Direct GPU-to-GPU migration over a peer link (NVLink-class,
     *  Section 2.3).  Off = peer migrations bounce through host
     *  memory, paying both PCIe directions. */
    bool peer_enabled = true;

    // ---- Per-operation costs (per 2 MB va_block unless noted) ----

    /** Draining and servicing one replayable-fault-buffer batch:
     *  interrupt, dedup, replay (excl. per-fault work below).  GPUs
     *  report faults into a hardware buffer the driver drains in
     *  batches. */
    sim::SimDuration gpu_fault_cost = sim::microseconds(45);

    /** Per faulting va_block service work within a batch. */
    sim::SimDuration gpu_fault_service = sim::microseconds(6);

    /** Extra SM stall modelled per faulting block while a kernel runs.
     *  GPU faults hinder thread parallelism (Section 2.1), which is
     *  why on-demand faulting is so much worse than prefetching. */
    sim::SimDuration gpu_fault_stall = sim::microseconds(38);

    /** Faulting blocks serviced per batch drain. */
    std::uint32_t fault_batch_capacity = 32;

    /** Handling a CPU page fault on a managed block. */
    sim::SimDuration cpu_fault_cost = sim::microseconds(2);

    /** Clearing GPU PTEs + TLB invalidation round trip (Section 5.1). */
    sim::SimDuration gpu_unmap_cost = sim::microseconds(1.5);

    /** Establishing GPU PTEs for one block. */
    sim::SimDuration gpu_map_cost = sim::microseconds(1.0);

    /** CPU-side map/unmap of one block (host page tables are local). */
    sim::SimDuration cpu_unmap_cost = sim::microseconds(0.5);
    sim::SimDuration cpu_map_cost = sim::microseconds(0.5);

    /** Prefetch of an already-resident block: recency update only
     *  (Section 7.5.1: "neither transfer or prefault memory but only
     *  update the recency of page accesses"). */
    sim::SimDuration recency_touch_cost = sim::microseconds(0.4);

    /** Generic per-block driver bookkeeping (bitmap walks etc.);
     *  also the per-block cost of UvmDiscardLazy. */
    sim::SimDuration block_op_cost = sim::microseconds(0.3);

    /** Reclaiming a chunk that needs no transfer (unused/discarded). */
    sim::SimDuration reclaim_cost = sim::microseconds(1);

    // ---- Transfer engine (how residency movement executes) ----

    /** DMA copy engines per direction per GPU (and on the peer
     *  fabric).  Real GPUs expose several; more engines let
     *  same-direction traffic from independent streams overlap.
     *  Default 1 preserves the calibrated seed timings. */
    int copy_engines_per_dir = 1;

    /** Coalesce virtually-contiguous runs that span adjacent
     *  va_blocks within one prefetch/fault/eviction batch into a
     *  single DMA descriptor, paying one per-transfer setup instead
     *  of one per block.  Default off preserves the calibrated seed
     *  timings; see uvm.dma_descriptors for the effect. */
    bool coalesce_transfers = false;

    // ---- GPU-local copy engine ----

    /** Zero-fill bandwidth for big contiguous chunks (GB/s). */
    double zero_bandwidth_gbps = 400.0;

    /** Per zero operation setup. */
    sim::SimDuration zero_setup = sim::microseconds(1);

    // ---- Behaviour switches ----

    /** Keep real page payloads (tests/examples) or metadata only. */
    bool backed = false;

    /** warn() when a kernel writes a lazily-discarded page without
     *  the mandatory prefetch (Section 5.2 contract). */
    bool lazy_contract_warnings = true;

    /** checkInvariants(): panic on the first violation (historical
     *  behaviour, right for unit tests) versus letting callers pull
     *  the structured list via collectInvariantViolations(). */
    bool panic_on_violation = true;

    /** Verification-only deliberate bug (see BugInjection). */
    BugInjection bug = BugInjection::kNone;

    // ---- Ablation switches (see DESIGN.md Section 5) ----

    /** Section 5.5: keep a separate discarded FIFO in the eviction
     *  order.  Off = discarded chunks stay on the used LRU. */
    bool discard_queue_enabled = true;

    /** Section 5.4: honour partial discards by splitting 2 MB GPU
     *  mappings.  Off (paper policy) = ignore partial ranges that
     *  would split a big mapping. */
    bool partial_discard_splits = false;

    /** Section 5.7: track per-chunk full preparation.  Off = always
     *  re-zero the whole 2 MB chunk when re-using a discarded page. */
    bool track_fully_prepared = true;

    /** Used-queue victim selection (see EvictionPolicy). */
    EvictionPolicy eviction_policy = EvictionPolicy::kLru;

    /** Fault-injection plan (disabled by default; when disabled the
     *  simulation is bit-identical to a build without the injector). */
    sim::FaultPlan faults;

    /** The 3080Ti/Ryzen-3900X platform of Section 7.1. */
    static UvmConfig rtx3080ti();

    /** The 8 GB GTX 1070 platform of Table 1. */
    static UvmConfig gtx1070();
};

}  // namespace uvmd::uvm

#endif  // UVMD_UVM_CONFIG_HPP
