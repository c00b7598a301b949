/**
 * @file
 * Driver instrumentation hooks.
 *
 * The paper's evaluation relies on driver-level instrumentation to
 * split "PCIe traffic the driver performed" from "transfers actually
 * required for correctness" (Figure 3).  The driver reports every
 * migration, skip, access, discard and free through this interface;
 * trace::Auditor implements it to classify transfers as redundant
 * and attribute them to managed ranges, and verify::Oracle to mirror
 * the driver's state machine.
 */

#ifndef UVMD_UVM_OBSERVER_HPP
#define UVMD_UVM_OBSERVER_HPP

#include "interconnect/link.hpp"
#include "sim/arena.hpp"
#include "sim/digest.hpp"
#include "uvm/va_block.hpp"

namespace uvmd::uvm {

/** Why the driver moved (or skipped moving) data. */
enum class TransferCause : std::uint8_t {
    kPrefetch,  ///< explicit cudaMemPrefetchAsync
    kGpuFault,  ///< on-demand GPU fault migration
    kCpuFault,  ///< host access pulled the data back
    kEviction,  ///< memory-pressure eviction (Section 5.3, case 1)
};

const char *toString(TransferCause cause);

/** What the fault-injection/recovery machinery just did (reported
 *  through TransferObserver::onFault). */
enum class FaultEvent : std::uint8_t {
    kDmaFault,       ///< a DMA descriptor failed transiently
    kDmaRetry,       ///< the failed descriptor was re-issued
    kChunkRetired,   ///< an ECC-bad 2 MB chunk left service
    kAllocFail,      ///< injected transient chunk-allocation failure
    kOomFallback,    ///< exhaustion served via Section 2.3 remote access
    kLinkDegraded,   ///< link bandwidth dropped mid-run
    kEngineOffline,  ///< a copy engine stopped accepting work
};

const char *toString(FaultEvent event);

class TransferObserver
{
  public:
    virtual ~TransferObserver() = default;

    /** Pages of @p block actually copied over the interconnect. */
    virtual void onTransfer(const VaBlock &block, const PageMask &pages,
                            interconnect::Direction dir,
                            TransferCause cause) = 0;

    /** Pages whose transfer the discard state allowed skipping. */
    virtual void onTransferSkipped(const VaBlock &block,
                                   const PageMask &pages,
                                   interconnect::Direction dir,
                                   TransferCause cause) = 0;

    /** Pages read and/or written by a processor.  Called after the
     *  driver made the pages resident at the accessor. */
    virtual void onAccess(const VaBlock &block, const PageMask &pages,
                          bool is_read, bool is_write,
                          ProcessorId where) = 0;

    /** A whole-range access of @p n blocks — one range's blocks,
     *  adjacent and in address order — all of whose valid pages were
     *  already resident and mapped at @p where.  The default reports
     *  each block through onAccess, in order, so an observer sees
     *  exactly what the per-block walk would report. */
    virtual void
    onAccessRun(VaBlock *const *blocks, std::size_t n, bool is_read,
                bool is_write, ProcessorId where)
    {
        for (std::size_t i = 0; i < n; ++i)
            onAccess(*blocks[i], blocks[i]->valid, is_read, is_write,
                     where);
    }

    /** Pages discarded by either directive. */
    virtual void onDiscard(const VaBlock &block,
                           const PageMask &pages) = 0;

    /** Pages released by freeing the managed range. */
    virtual void onFree(const VaBlock &block, const PageMask &pages) = 0;

    /**
     * An injected fault (or its recovery step) occurred.  @p block_base
     * is the affected va_block's base, or 0 for link-level events that
     * have no block; @p pages is the number of pages involved (0 when
     * not meaningful).  Default no-op so existing observers that only
     * care about data movement are unaffected.
     */
    virtual void onFault(FaultEvent event, mem::VirtAddr block_base,
                         std::uint32_t pages)
    {
        (void)event;
        (void)block_base;
        (void)pages;
    }

    // ------------------------------------------------------------
    // State-machine hooks (verification spine)
    //
    // The verify::Oracle mirrors the driver's per-page state machine
    // from these events and cross-checks the mirror against the real
    // block state after every operation, so every mutation of the
    // mapping masks, the software dirty bit, and the queue membership
    // must flow through them.  All default to no-ops: observers that
    // only care about data movement (the auditor) are unaffected, and
    // the fault-free simulation stays bit-identical.
    // ------------------------------------------------------------

    /** Pages of @p block that just gained a PTE at @p where. */
    virtual void onMap(const VaBlock &block, const PageMask &pages,
                       ProcessorId where)
    {
        (void)block;
        (void)pages;
        (void)where;
    }

    /** Pages of @p block whose PTEs at @p where were just destroyed. */
    virtual void onUnmap(const VaBlock &block, const PageMask &pages,
                         ProcessorId where)
    {
        (void)block;
        (void)pages;
        (void)where;
    }

    /**
     * The discard state of @p pages changed.  @p discarded true means
     * the pages were just marked discarded (their software dirty bit
     * was cleared); false means they were re-armed (dirty bit set —
     * a prefetch, fault, or migration told the driver the pages may
     * hold new values).  Only actual transitions are reported: pages
     * already in the target state are excluded from the mask.
     */
    virtual void onDiscardStateChange(const VaBlock &block,
                                      const PageMask &pages,
                                      bool discarded)
    {
        (void)block;
        (void)pages;
        (void)discarded;
    }

    /** @p block moved between the Section 5.5 physical page queues
     *  (kNone means off-queue: no chunk, or mid-reclamation).  MRU
     *  touches within the used queue are not reported. */
    virtual void onQueueMove(const VaBlock &block, mem::QueueKind from,
                             mem::QueueKind to)
    {
        (void)block;
        (void)from;
        (void)to;
    }

    /**
     * Add the observer's state that shapes its future results to
     * @p d (UvmDriver::hashState).  @return false when the observer
     * cannot: a state digest then cannot be taken, so nothing that
     * trusts one skips events this observer would have seen.  That
     * is the default.
     */
    virtual bool
    hashState(sim::Digest &d) const
    {
        (void)d;
        return false;
    }
};

/**
 * Fan-out observer: forwards every event to each attached observer in
 * attach order.  Lets the verification oracle ride alongside the
 * auditor that a harness already installed (the driver itself holds
 * a single observer pointer).
 */
class ObserverMux : public TransferObserver
{
  public:
    void add(TransferObserver *obs)
    {
        if (obs)
            observers_.push_back(obs);
        single_ = observers_.size() == 1 ? observers_[0] : nullptr;
    }

    void
    onTransfer(const VaBlock &block, const PageMask &pages,
               interconnect::Direction dir, TransferCause cause) override
    {
        forward(&TransferObserver::onTransfer, block, pages, dir, cause);
    }

    void
    onTransferSkipped(const VaBlock &block, const PageMask &pages,
                      interconnect::Direction dir,
                      TransferCause cause) override
    {
        forward(&TransferObserver::onTransferSkipped,
                block, pages, dir, cause);
    }

    void
    onAccess(const VaBlock &block, const PageMask &pages, bool is_read,
             bool is_write, ProcessorId where) override
    {
        forward(&TransferObserver::onAccess,
                block, pages, is_read, is_write, where);
    }

    void
    onAccessRun(VaBlock *const *blocks, std::size_t n, bool is_read,
                bool is_write, ProcessorId where) override
    {
        forward(&TransferObserver::onAccessRun,
                blocks, n, is_read, is_write, where);
    }

    void
    onDiscard(const VaBlock &block, const PageMask &pages) override
    {
        forward(&TransferObserver::onDiscard, block, pages);
    }

    void
    onFree(const VaBlock &block, const PageMask &pages) override
    {
        forward(&TransferObserver::onFree, block, pages);
    }

    void
    onFault(FaultEvent event, mem::VirtAddr block_base,
            std::uint32_t pages) override
    {
        forward(&TransferObserver::onFault, event, block_base, pages);
    }

    void
    onMap(const VaBlock &block, const PageMask &pages,
          ProcessorId where) override
    {
        forward(&TransferObserver::onMap, block, pages, where);
    }

    void
    onUnmap(const VaBlock &block, const PageMask &pages,
            ProcessorId where) override
    {
        forward(&TransferObserver::onUnmap, block, pages, where);
    }

    void
    onDiscardStateChange(const VaBlock &block, const PageMask &pages,
                         bool discarded) override
    {
        forward(&TransferObserver::onDiscardStateChange,
                block, pages, discarded);
    }

    void
    onQueueMove(const VaBlock &block, mem::QueueKind from,
                mem::QueueKind to) override
    {
        forward(&TransferObserver::onQueueMove, block, from, to);
    }

  private:
    /** Call @p hook on each attached observer, in attach order. */
    template <typename Hook, typename... Args>
    void
    forward(Hook hook, const Args &...args)
    {
        if (single_) {
            (single_->*hook)(args...);
            return;
        }
        for (auto *o : observers_)
            (o->*hook)(args...);
    }

    sim::SmallVec<TransferObserver *, 4> observers_;
    /** Non-null iff exactly one observer is attached: the overwhelmingly
     *  common case (a harness plus at most a verifier) skips the
     *  fan-out loop entirely. */
    TransferObserver *single_ = nullptr;
};

}  // namespace uvmd::uvm

#endif  // UVMD_UVM_OBSERVER_HPP
