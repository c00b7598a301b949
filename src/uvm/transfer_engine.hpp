/**
 * @file
 * TransferEngine — the mechanism half of the driver's policy/mechanism
 * split.
 *
 * UvmDriver decides *what* moves (and what the discard state lets it
 * skip); the TransferEngine decides *how* it moves.  All residency
 * movement is expressed as a structured TransferRequest (block, page
 * mask, direction, cause) which the engine turns into DMA descriptors
 * on the owning link's copy engines (interconnect::DmaScheduler).
 *
 * The engine is the single choke point for the transfer event spine:
 *   - per-cause traffic accounting (the uvm.bytes_{h2d,d2h}.* and
 *     uvm.saved_*_bytes counters every evaluation table reads),
 *   - link-level byte/transfer totals,
 *   - TransferObserver notification (auditor, advisor, trace log),
 *   - the dma_descriptors counter.
 *
 * Within a batch scope (one prefetch, one kernel's fault walk, one
 * eviction run) the engine can *coalesce* virtually-contiguous runs
 * that span adjacent va_blocks into a single descriptor, paying one
 * setup latency instead of one per block (config knob
 * coalesce_transfers, default off to preserve calibrated timings).
 */

#ifndef UVMD_UVM_TRANSFER_ENGINE_HPP
#define UVMD_UVM_TRANSFER_ENGINE_HPP

#include <array>

#include "interconnect/link.hpp"
#include "sim/arena.hpp"
#include "sim/fault_injector.hpp"
#include "uvm/config.hpp"
#include "uvm/counters.hpp"
#include "uvm/observer.hpp"
#include "uvm/va_block.hpp"

namespace uvmd::uvm {

/** One structured unit of residency movement. */
struct TransferRequest {
    const VaBlock *block;        ///< block whose pages move
    PageMask pages;              ///< exact pages to move
    interconnect::Direction dir;
    TransferCause cause;
    GpuId gpu = 0;               ///< whose host link carries it
    bool peer = false;           ///< use the GPU-to-GPU fabric instead
};

class TransferEngine
{
  public:
    TransferEngine(const UvmConfig &cfg, UvmStats &counters);

    /** Wire one GPU's host link (call once per GPU, in id order). */
    void addGpuLink(interconnect::Link *link);

    /** Wire the GPU-to-GPU peer fabric. */
    void setPeerLink(interconnect::Link *peer);

    void setObserver(TransferObserver *obs) { observer_ = obs; }

    /** Wire the fault injector (owned by the driver).  A disabled or
     *  absent injector leaves every timing bit-identical. */
    void setInjector(sim::FaultInjector *inj) { injector_ = inj; }

    // ------------------------------------------------------------
    // Batch scopes
    // ------------------------------------------------------------

    /** Opens a coalescing scope for the lifetime of the object; spans
     *  submitted back-to-back inside one scope may merge into single
     *  descriptors.  Scopes nest (a prefetch that triggers eviction). */
    class BatchScope
    {
      public:
        explicit BatchScope(TransferEngine &eng) : eng_(eng)
        {
            eng_.beginBatch();
        }
        ~BatchScope() { eng_.endBatch(); }
        BatchScope(const BatchScope &) = delete;
        BatchScope &operator=(const BatchScope &) = delete;

      private:
        TransferEngine &eng_;
    };

    void beginBatch();
    void endBatch();

    // ------------------------------------------------------------
    // The transfer spine
    // ------------------------------------------------------------

    /**
     * Execute @p req starting no earlier than @p start: decompose the
     * page mask into contiguous runs (one DMA descriptor each, minus
     * any run coalesced onto the previous request), reserve copy-
     * engine time, account traffic per cause, and notify the
     * observer.
     * @return completion time (== @p start for an empty mask).
     */
    sim::SimTime submit(const TransferRequest &req, sim::SimTime start);

    /**
     * Record pages whose transfer the discard state allowed skipping
     * (saved_*_bytes counters + observer).  @p peer marks GPU-to-GPU
     * skips, which account as saved_d2d_bytes.
     */
    void skipped(const VaBlock &block, const PageMask &pages,
                 interconnect::Direction dir, TransferCause cause,
                 bool peer = false);

    /**
     * Raw single-descriptor traffic with no va_block identity: the
     * cudaMemcpyAsync path on explicit device buffers, and in-place
     * remote accesses (Section 2.3 mode).
     * @return completion time.
     */
    sim::SimTime rawTransfer(GpuId gpu, sim::Bytes bytes,
                             interconnect::Direction dir,
                             sim::SimTime start);

  private:
    /** Coalescing tail: where the last descriptor of a (link, dir)
     *  pair ended, and on which copy engine it ran. */
    struct Tail {
        bool valid = false;
        mem::VirtAddr end_addr = 0;
        std::uint32_t engine = 0;
    };

    interconnect::Link &linkFor(const TransferRequest &req);
    std::size_t linkIndex(const TransferRequest &req) const;
    void invalidateTail(std::size_t link_idx,
                        interconnect::Direction dir);

    /**
     * Fault-injection hook after descriptors land on @p engine: draws
     * per-descriptor transient failures and re-issues each failed
     * descriptor with exponential backoff (bounded by the plan's
     * dma_max_retries; a descriptor that still fails then is a
     * permanent transfer failure, which is fatal).
     * @return completion time including any retries.
     */
    sim::SimTime injectDmaRetries(interconnect::DmaScheduler &sched,
                                  std::uint32_t engine,
                                  interconnect::Direction dir,
                                  sim::Bytes bytes,
                                  std::uint32_t new_descriptors,
                                  sim::SimTime done,
                                  UvmStat cause_retries,
                                  mem::VirtAddr block_base,
                                  std::uint32_t pages);

    /** Apply scheduled link events whose descriptor threshold has been
     *  crossed (bandwidth degradation, copy-engine loss). */
    void applyLinkEvents(sim::SimTime now);

    const UvmConfig &cfg_;
    UvmStats &counters_;
    sim::SmallVec<interconnect::Link *, 4> gpu_links_;
    interconnect::Link *peer_link_ = nullptr;
    TransferObserver *observer_ = nullptr;
    sim::FaultInjector *injector_ = nullptr;
    std::uint64_t descriptors_issued_ = 0;
    int batch_depth_ = 0;
    /** Indexed by [linkIndex][direction]; last slot is the peer. */
    sim::SmallVec<std::array<Tail, 2>, 5> tails_;
};

}  // namespace uvmd::uvm

#endif  // UVMD_UVM_TRANSFER_ENGINE_HPP
