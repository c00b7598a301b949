/**
 * @file
 * UvmDriver — the driver model at the heart of this reproduction.
 *
 * Orchestrates the unified address space (VaSpace), per-GPU physical
 * memory (ChunkAllocator + the Section 5.5 page queues), fault-driven
 * migration, prefetch, eviction, and the two discard implementations.
 *
 * Every operation that consumes time takes a start time and returns a
 * completion time, reserving spans on the interconnect copy engines
 * and the GPU-local zero engine along the way; the CUDA runtime layer
 * threads stream ordering through these timestamps.
 *
 * Policy/mechanism split: UvmDriver is *policy* — it decides what
 * moves, what the discard state lets it skip, and what gets evicted.
 * The *mechanism* of moving bytes lives in the TransferEngine
 * (uvm/transfer_engine.hpp): every transfer is a structured
 * TransferRequest the engine turns into DMA descriptors, accounts,
 * and reports to the TransferObserver spine.  Driver code never
 * touches the link engines directly.
 *
 * Implementation is split by concern:
 *   driver.cpp          construction, allocation, stat dumps
 *   transfer_engine.cpp the transfer mechanism (descriptors, engines)
 *   migration.cpp       residency movement to and between GPUs
 *   eviction.cpp        free->unused->discarded->used-LRU reclaim order
 *                       and the device-to-host skip rules
 *   prefetch.cpp        cudaMemPrefetchAsync (incl. lazy re-dirty)
 *   discard.cpp         UvmDiscard / UvmDiscardLazy (Sections 5.1-5.4)
 *   access.cpp          GPU kernel and host access paths (faults)
 *   page_table.cpp      mapping-cost bookkeeping
 */

#ifndef UVMD_UVM_DRIVER_HPP
#define UVMD_UVM_DRIVER_HPP

#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "interconnect/link.hpp"
#include "mem/backing_store.hpp"
#include "mem/chunk_allocator.hpp"
#include "mem/page_queues.hpp"
#include "mem/zero_engine.hpp"
#include "sim/fault_injector.hpp"
#include "sim/logging.hpp"
#include "sim/progress.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/stats.hpp"
#include "uvm/config.hpp"
#include "uvm/counters.hpp"
#include "uvm/observer.hpp"
#include "uvm/transfer_engine.hpp"
#include "uvm/va_space.hpp"

namespace uvmd::uvm {

/**
 * Thrown when a GPU's memory is truly exhausted: the eviction process
 * found nothing reclaimable and every configured fallback failed.
 * Derives from FatalError so legacy catch sites still work; the CUDA
 * runtime layer catches it and surfaces cudaErrorMemoryAllocation.
 */
class GpuOomError : public sim::FatalError
{
  public:
    explicit GpuOomError(GpuId gpu)
        : sim::FatalError("GPU " + std::to_string(gpu) +
                          ": memory exhausted and nothing evictable "
                          "(working set exceeds framebuffer including "
                          "the occupier reservation)"),
          gpu_id(gpu)
    {}

    GpuId gpu_id;
};

/** How an access touches memory. */
enum class AccessKind : std::uint8_t { kRead, kWrite, kReadWrite };

constexpr bool reads(AccessKind k) { return k != AccessKind::kWrite; }
constexpr bool writes(AccessKind k) { return k != AccessKind::kRead; }

/** One contiguous touched span of a kernel (or host loop). */
struct Access {
    mem::VirtAddr addr;
    sim::Bytes size;
    AccessKind kind;
};

/**
 * One structural invariant the driver's state violated, as found by
 * UvmDriver::collectInvariantViolations().  `code` is a stable
 * machine-readable identifier (e.g. "mapped-not-resident-gpu"),
 * `block` the base address of the offending va_block (0 for
 * whole-GPU accounting violations), `pages` how many pages are
 * implicated, and `detail` a human-readable elaboration.
 */
struct InvariantViolation {
    std::string code;
    mem::VirtAddr block = 0;
    std::uint32_t pages = 0;
    std::string detail;
};

/** cudaMemAdvise-style hints (the Section 2.3 remote-access mode). */
enum class MemAdvise : std::uint8_t {
    kSetAccessedBy,    ///< the GPU maps the data in place; kernel
                       ///< accesses go over the link, no migration
    kUnsetAccessedBy,  ///< revert to fault-driven migration
    kSetPreferredLocationCpu,    ///< GPU faults remote-map instead of
                                 ///< migrating (any GPU)
    kUnsetPreferredLocation,
};

class UvmDriver
{
  public:
    /**
     * @param cfg        capacities, costs and behaviour switches
     * @param link_spec  the host-device interconnect (one per GPU)
     * @param peer_spec  the GPU-to-GPU link used when
     *                   cfg.peer_enabled (defaults to NVLink-class)
     */
    UvmDriver(const UvmConfig &cfg, interconnect::LinkSpec link_spec,
              interconnect::LinkSpec peer_spec =
                  interconnect::LinkSpec::nvlink());

    // ------------------------------------------------------------
    // Address space
    // ------------------------------------------------------------

    /** cudaMallocManaged: reserve unified VA (no physical memory). */
    mem::VirtAddr allocManaged(sim::Bytes size, std::string name);

    /** cudaFree of a managed range: release all backing memory.
     *  @return false with no state change on a bad base (unknown
     *  range or non-base pointer, e.g. a double free). */
    bool tryFreeManaged(mem::VirtAddr base);

    // ------------------------------------------------------------
    // Oversubscription support (Section 7.1 occupier methodology)
    // ------------------------------------------------------------

    void reserveGpuMemory(GpuId gpu, sim::Bytes bytes);

    /** Like reserveGpuMemory(), but @return false with no state
     *  change when the reservation exceeds free memory. */
    bool tryReserveGpuMemory(GpuId gpu, sim::Bytes bytes);

    void unreserveGpuMemory(GpuId gpu, sim::Bytes bytes);

    // ------------------------------------------------------------
    // Timed driver operations (called by the CUDA runtime layer)
    // ------------------------------------------------------------

    /**
     * cudaMemPrefetchAsync to @p dst.  Migrates, prefaults, or — for
     * lazily-discarded resident pages — just sets the software dirty
     * bits (Section 5.2).
     * @return completion time.
     */
    sim::SimTime prefetch(mem::VirtAddr addr, sim::Bytes size,
                          ProcessorId dst, sim::SimTime start);

    /**
     * The discard directive (Section 4/5) over [addr, addr+size).
     * @return completion time.
     */
    sim::SimTime discard(mem::VirtAddr addr, sim::Bytes size,
                         DiscardMode mode, sim::SimTime start);

    /**
     * All memory traffic of one GPU kernel: walks the access list in
     * order, faulting and migrating as needed.
     * @return time at which the kernel's memory side is settled (the
     *         runtime maxes this with the compute duration).
     */
    sim::SimTime gpuAccess(GpuId gpu, const std::vector<Access> &accesses,
                           sim::SimTime start);

    /** Host-side touch of managed memory (init loops, result reads). */
    sim::SimTime hostAccess(mem::VirtAddr addr, sim::Bytes size,
                            AccessKind kind, sim::SimTime start);

    /**
     * cudaMemAdvise: set or clear the remote-access hints over
     * [addr, addr+size).  Synchronous and cheap (flag updates).
     */
    void memAdvise(mem::VirtAddr addr, sim::Bytes size, MemAdvise advice,
                   GpuId gpu = 0);

    // ------------------------------------------------------------
    // Data plane (backed mode; no simulated time)
    // ------------------------------------------------------------

    /**
     * Write real bytes at @p addr into the currently-resident copy.
     * @pre the page is populated (an access path ran first).
     */
    void poke(mem::VirtAddr addr, const void *data, std::size_t len);

    /** Read real bytes from the currently-resident copy. */
    void peek(mem::VirtAddr addr, void *out, std::size_t len);

    template <typename T>
    void
    pokeValue(mem::VirtAddr addr, const T &v)
    {
        poke(addr, &v, sizeof(T));
    }

    template <typename T>
    T
    peekValue(mem::VirtAddr addr)
    {
        T v{};
        peek(addr, &v, sizeof(T));
        return v;
    }

    /**
     * Per-span word I/O: write or read the 8-byte word at offset 0 of
     * pages [lo, lo + words.size()) of the va_block at @p block_base,
     * word i at page lo + i, each in its currently-resident copy.  One
     * block lookup and one store lookup serve the whole span.
     * The span must lie in the block (else both panic), and for
     * pokeWords every page of it must be populated.
     */
    void pokeWords(mem::VirtAddr block_base, std::uint32_t lo,
                   std::span<const std::uint64_t> words);
    void peekWords(mem::VirtAddr block_base, std::uint32_t lo,
                   std::span<std::uint64_t> words);

    // ------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------

    const UvmConfig &config() const { return cfg_; }
    VaSpace &vaSpace() { return va_space_; }
    interconnect::Link &link(GpuId gpu = 0) { return gpus_[gpu]->link; }
    mem::ChunkAllocator &allocator(GpuId gpu = 0)
    {
        return gpus_[gpu]->allocator;
    }
    const mem::ZeroEngine &zeroEngine(GpuId gpu = 0) const
    {
        return gpus_[gpu]->zero_engine;
    }

    using Queues = mem::GpuPageQueues<VaBlock, &VaBlock::link>;
    Queues &queues(GpuId gpu = 0) { return gpus_[gpu]->queues; }

    /** Peer-link bytes moved (not part of the PCIe traffic totals). */
    sim::Bytes trafficD2d() const { return counters_[UvmStat::bytes_d2d]; }

    mem::BackingStore &backing() { return backing_; }

    /** The "uvm." counter table (uvm/counters.hpp), read by name. */
    sim::StatGroup counters() const { return counters_.group(); }

    /** One row of the "uvm." counter table. */
    std::uint64_t counter(UvmStat row) const { return counters_[row]; }

    /** The transfer mechanism: every byte the driver moves flows
     *  through this engine (accounting, observers, DMA scheduling). */
    TransferEngine &transferEngine() { return *xfer_; }

    /** The fault injector (disabled unless cfg.faults.enabled); its
     *  tally lets tests reconcile the fault_injected counter. */
    const sim::FaultInjector &faultInjector() const { return injector_; }

    /** Host-link traffic of all GPUs: the bytes_{h2d,d2h}.* and
     *  remote_*_bytes rows. */
    sim::Bytes totalTrafficBytes() const;
    sim::Bytes trafficH2d() const;
    sim::Bytes trafficD2h() const;

    void
    setObserver(TransferObserver *obs)
    {
        observer_ = obs;
        xfer_->setObserver(obs);
    }

    /**
     * Validate internal invariants.  With cfg.panic_on_violation (the
     * default, matching historical behaviour) panics on the first
     * violation; otherwise records the count (surfaced by
     * dumpStatsJson as "invariant_violations") and returns.
     */
    void checkInvariants();

    /**
     * Structural cross-checks of the driver state (residency
     * exclusivity, mapping ⊆ residency, queue membership vs. chunk
     * ownership, chunk accounting, ...).  Never panics; returns every
     * violation found.  checkInvariants() is a thin wrapper.
     */
    std::vector<InvariantViolation> collectInvariantViolations();

    /** Attach a forward-progress sink; the eviction retry loops
     *  report each iteration through it (nullptr detaches). */
    void setProgressSink(sim::ProgressSink *sink)
    {
        progress_sink_ = sink;
    }

    /** Dump every statistic (driver counters, per-GPU copy-engine
     *  busy times, allocator, zero engine, chunk and queue state) as
     *  one JSON object. */
    void dumpStatsJson(std::ostream &os);

    /**
     * Add every piece of driver state that can change the future to
     * @p d, times as offsets from its reference time: the blocks and
     * ranges (VaSpace::hashState), each GPU's chunk accounting, links
     * and queue order, the peer link, the transfer engine and the
     * observer's state.  Counters are outputs and stay out.
     * @return false, leaving @p d incomplete, when the state holds
     *         what no digest covers: page payloads (backed mode), the
     *         fault injector's or the random victim policy's random
     *         stream, an attached progress sink, or an observer whose
     *         hashState() declines.
     */
    bool hashState(sim::Digest &d) const;

  private:
    struct GpuState {
        explicit GpuState(const UvmConfig &cfg,
                          const interconnect::LinkSpec &spec)
            : allocator(cfg.gpu_memory),
              link(spec, cfg.copy_engines_per_dir),
              zero_engine(cfg.zero_bandwidth_gbps, cfg.zero_setup)
        {}

        mem::ChunkAllocator allocator;
        Queues queues;
        interconnect::Link link;
        mem::ZeroEngine zero_engine;
    };

    // ---- migration.cpp ----

    /**
     * Make @p pages of @p block resident on @p gpu: allocates the
     * chunk (evicting under pressure), transfers live pages, and
     * zero-fills never-populated or discarded pages.  Does not map.
     * Pages resident on a *different* GPU move peer-to-peer when the
     * peer link is enabled, else bounce through host memory.
     * @return completion time.
     */
    sim::SimTime migrateToGpu(VaBlock &block, const PageMask &pages,
                              GpuId gpu, TransferCause cause,
                              sim::SimTime start);

    /** H2D copy of live host @p pages into @p block's chunk: the CPU
     *  unmap, the transfer, the backing copy and the prepared mark. */
    sim::SimTime copyToGpu(VaBlock &block, const PageMask &pages,
                           GpuId gpu, TransferCause cause,
                           sim::SimTime start);

    /** Drain @p block's residency off its current owner GPU onto
     *  @p dst (peer transfer or host bounce).  @pre different GPUs. */
    sim::SimTime migrateGpuToGpu(VaBlock &block, GpuId dst,
                                 TransferCause cause, sim::SimTime start);

    /** The rest of a fill (VaBlock::fillable) once allocChunk has
     *  given @p block its chunk on @p gpu: the H2D copy of the host
     *  pages or the zero-fill of unpopulated ones, the residency
     *  update and the 2 MB map. */
    sim::SimTime fillBlockToGpu(VaBlock &block, GpuId gpu,
                                TransferCause cause, sim::SimTime start);

    /** Zero-fill GPU pages of a block (chunk must exist). */
    sim::SimTime zeroGpuPages(VaBlock &block, const PageMask &pages,
                              GpuId gpu, sim::SimTime start);

    /** First touch on the host: unpopulated @p pages become
     *  zero-filled, CPU-resident pages with a CPU copy (Figure 1,
     *  step 1).  The caller charges the CPU fault. */
    void zeroFillOnCpu(VaBlock &block, const PageMask &pages);

    /**
     * Section 5.7: re-using a discarded page whose chunk was never
     * fully prepared requires zeroing the whole 2 MB chunk.  Charges
     * a full-chunk zero; only actually clears (in backed mode) the
     * pages that were unprepared, so live data is not wiped.
     */
    sim::SimTime rezeroChunk(VaBlock &block, GpuId gpu,
                             sim::SimTime start);

    // ---- eviction.cpp ----

    /**
     * Make @p pages of @p block resident on the CPU, skipping the
     * transfer of discarded pages (Section 5.3).  Unmaps the GPU
     * pages; releases the chunk to the unused queue when drained.
     */
    sim::SimTime migrateToCpu(VaBlock &block, const PageMask &pages,
                              TransferCause cause, sim::SimTime start);

    /** The Section 5.3 device-to-host rules for @p moving, a
     *  non-empty set of @p block's GPU-resident pages: unmap, copy
     *  the live pages, skip the discarded ones, drop the device
     *  copies.  Leaves queue membership to the caller.  Takes the
     *  mask by value: callers pass block.resident_gpu, which this
     *  clears.  @p peer counts the skips as saved peer bytes
     *  (migrateGpuToGpu's discarded pages). */
    sim::SimTime moveToCpu(VaBlock &block, PageMask moving,
                           TransferCause cause, sim::SimTime start,
                           bool peer = false);

    /**
     * Allocate one chunk on @p gpu for @p block, running the eviction
     * process as needed (Section 5.5 order).
     * @return completion time (>= start when eviction did work).
     * @throws GpuOomError when memory is exhausted and nothing is
     *         evictable.
     */
    sim::SimTime allocChunk(VaBlock &block, GpuId gpu,
                            sim::SimTime start);

    /** Evict until at least one chunk is free on @p gpu (used to make
     *  a later allocChunk non-throwing before irreversible state
     *  teardown).  @throws GpuOomError like allocChunk. */
    sim::SimTime ensureFreeChunk(GpuId gpu, sim::SimTime start);

    /** Release the chunk of @p block back to the free queue. */
    void releaseChunk(VaBlock &block);

    /**
     * One eviction step on GPU @p g: pick the victim in the
     * Section 5.5 order, tear it down in place (deferred unmap, D2H
     * of live pages, skipped discarded pages) and unlink it.  The
     * victim's chunk stays counted as allocated: the caller hands it
     * to a new block or frees it.  Advances @p t.
     * @return false when nothing on the GPU is evictable (memory
     *         truly exhausted).
     */
    bool reclaimChunk(GpuState &g, sim::SimTime &t);

    /** Pick the used-queue victim per cfg_.eviction_policy. */
    VaBlock *selectUsedVictim(GpuState &g);

    // ---- discard.cpp ----

    sim::SimTime discardBlock(VaBlock &block, const PageMask &pages,
                              DiscardMode mode, sim::SimTime start);

    /** Place a block on used/discarded per its current state. */
    void requeueAfterDiscardStateChange(VaBlock &block);

    /** discard() of a whole range that is residentOn its GPU: the
     *  state changes, events and costs of discardBlock plus the
     *  requeue, for every block, without a walk.  Leaves the range
     *  discardedOn that GPU. */
    sim::SimTime discardResidentRange(VaRange &range, DiscardMode mode,
                                      sim::SimTime start);

    // ---- prefetch.cpp ----

    /** GPU prefetch of @p pages of one block: migrate what is missing,
     *  re-arm what is still discarded, map, and touch. */
    sim::SimTime prefetchBlockToGpu(VaBlock &block, const PageMask &pages,
                                    GpuId gpu, sim::SimTime start);

    /** A prefetch is a hint: under the configured remote-access
     *  fallback a GPU too exhausted to take chunkless @p block skips
     *  it (the later access is served in place).  Counts and reports
     *  the skip.  @return false when the error must surface. */
    bool prefetchSkipsOom(const VaBlock &block, std::uint32_t pages);

    /** GPU prefetch of a whole range that is discardedOn that GPU:
     *  the re-arm the walk would do, block by block, without a walk.
     *  Leaves the range residentOn the GPU. */
    sim::SimTime rearmDiscardedRange(VaRange &range, sim::SimTime start);

    /** Any other GPU prefetch of a whole range (the oversubscribed
     *  refill): the walk's per-block work in a loop over
     *  `range.blocks`, with allocChunk and fillBlockToGpu for the
     *  fillable blocks.  May leave the range residentOn @p gpu. */
    sim::SimTime refillRange(VaRange &range, GpuId gpu,
                             sim::SimTime start);

    // ---- access.cpp ----

    /** @param batch_fill running count of faults in the kernel's
     *         current fault-buffer batch (one batch-drain cost is
     *         charged when a fresh batch opens). */
    sim::SimTime gpuTouchBlock(VaBlock &block, const PageMask &pages,
                               AccessKind kind, GpuId gpu,
                               sim::SimTime start,
                               std::uint32_t *batch_fill);

    /** A kernel access to a whole range that is not residentOn
     *  @p gpu (the fault-driven refill): the walk's per-block work in
     *  a loop over `range.blocks`, with the fault charge, allocChunk
     *  and fillBlockToGpu for the fillable blocks not advised to stay
     *  on the host.  May leave the range residentOn @p gpu. */
    sim::SimTime faultRange(VaRange &range, AccessKind kind, GpuId gpu,
                            sim::SimTime start,
                            std::uint32_t *batch_fill);

    /** One faulting block's share of the kernel's fault buffer: a
     *  fresh batch's drain cost, then the per-block service and SM
     *  stall for its @p pages faulting pages. */
    sim::SimTime chargeFault(std::uint32_t pages,
                             std::uint32_t *batch_fill,
                             sim::SimTime start);

    /** Section 2.3 degradation, called while a GpuOomError from the
     *  migration of @p block is being handled: with
     *  oom_remote_fallback set and no chunk on the block, the access
     *  is served in place from host pages (first-touch pages are
     *  zero-filled there).  Otherwise rethrows the error, which
     *  reaches the runtime as cudaErrorMemoryAllocation. */
    sim::SimTime oomRemoteTouch(VaBlock &block, const PageMask &pages,
                                AccessKind kind, GpuId gpu,
                                sim::SimTime start);

    // ---- advise.cpp ----

    /** Kernel access served in place over the interconnect (the
     *  Section 2.3 remote-access mode).  No residency change. */
    sim::SimTime remoteTouchBlock(VaBlock &block, const PageMask &pages,
                                  AccessKind kind, GpuId gpu,
                                  sim::SimTime start);

    // ---- page_table.cpp ----

    sim::SimTime mapOnGpu(VaBlock &block, const PageMask &pages,
                          GpuId gpu, sim::SimTime start);
    sim::SimTime unmapFromGpu(VaBlock &block, const PageMask &pages,
                              sim::SimTime start);
    sim::SimTime mapOnCpu(VaBlock &block, const PageMask &pages,
                          sim::SimTime start);
    sim::SimTime unmapFromCpu(VaBlock &block, const PageMask &pages,
                              sim::SimTime start);

    // ---- fault injection (eviction.cpp) ----

    /**
     * Roll for an ECC-style chunk failure at a driver entry point
     * (gpuAccess/prefetch).  On a hit, one random chunk-holding block
     * is picked, its live data migrates off, and the chunk is retired
     * from service (Section 5.5 semantics: discarded and unused pages
     * drop with no transfer).  Guarded so retirement never shrinks a
     * GPU below the plan's chunk_retire_floor.
     * @return completion time (== @p start when nothing fired).
     */
    sim::SimTime maybeInjectChunkFault(sim::SimTime start);

    /** Retire @p block's chunk after an ECC failure. */
    sim::SimTime retireChunk(VaBlock &block, sim::SimTime start);

    // ---- rule predicates ----

    /** Section 5.7: re-arming a discarded page re-zeroes its chunk
     *  unless the chunk is fully prepared (and that is tracked).
     *  Inline at the call sites: inside rezeroChunk it measured
     *  slower. */
    bool needsRezero(const VaBlock &b) const
    {
        return !cfg_.track_fully_prepared || !b.fullyPrepared();
    }

    /** Section 5.5: fully discarded chunks join the discarded FIFO
     *  (not under the ablation switch or the injected bug). */
    bool requeuesDiscarded() const
    {
        return cfg_.discard_queue_enabled &&
               cfg_.bug != BugInjection::kSkipDiscardRequeue;
    }

    // ---- driver.cpp helpers ----

    GpuState &gpu(GpuId id);
    void notifyAccess(const VaBlock &block, const PageMask &pages,
                      AccessKind kind, ProcessorId where);
    mem::CopySlot residentSlot(const VaBlock &block,
                               std::uint32_t page) const;

    // ---- observer-visible state mutations ----
    //
    // Changes to the software dirty bit and the queue membership
    // funnel through these helpers so the verification oracle sees
    // an exact event stream (observer.hpp state-machine hooks).  Both
    // only report actual deltas.  The whole-range loops
    // discardResidentRange and rearmDiscardedRange write both
    // directly, by measured design, and report the same events
    // (RangeSummaryDifferential holds them to the per-block paths).

    /** discarded |= mask (dirty bit cleared); reports the delta. */
    void markDiscarded(VaBlock &block, const PageMask &mask);

    /** discarded &= ~mask and discarded_lazily &= ~mask (dirty bit
     *  set); reports the discarded delta. */
    void clearDiscarded(VaBlock &block, const PageMask &mask);

    /** Move @p block's chunk to queue @p kind on its owner GPU
     *  (kNone unlinks).  No-op when already there — preserves FIFO
     *  position on re-discard.  Reports actual moves. */
    void setQueue(VaBlock &block, mem::QueueKind kind);

    /** va_space_.forEachBlock, counted in blocks_walked. */
    void
    walkBlocks(mem::VirtAddr addr, sim::Bytes size,
               sim::FunctionRef<void(VaBlock &, const PageMask &)> fn)
    {
        counters_[UvmStat::blocks_walked] +=
            va_space_.forEachBlock(addr, size, fn);
    }

    /** Touch @p block to the MRU end of its used queue, if it is on
     *  it (per-block walks; drops the range summary). */
    void
    touchUsed(VaBlock &block)
    {
        if (block.link.on != mem::QueueKind::kUsed)
            return;
        gpus_[block.owner_gpu]->queues.touchUsed(&block);
        dropSummary(block);
    }

    // ---- whole-range summary (VaRange::state) ----

    /** The range that [addr, addr+size) covers exactly, or nullptr. */
    VaRange *wholeRange(mem::VirtAddr addr, sim::Bytes size);

    /** Clear the summary of @p block's range, whichever state it
     *  holds.  setQueue (actual moves), markDiscarded, clearDiscarded
     *  (actual deltas), mapOnGpu, unmapFromGpu and touchUsed call
     *  this.  GPU residency is never lost without one of them: a
     *  resident or lazily discarded block is fully mapped and
     *  migrations unmap first; an eagerly discarded one either
     *  drains (its chunk changes queue) or re-arms the pages it
     *  loses (clearDiscarded). */
    void
    dropSummary(VaBlock &block)
    {
        block.range->state = RangeState::kNone;
        SummaryWalk *walk = summary_walk_;
        if (walk && walk->range_ == block.range && walk->last_ &&
            block.base <= walk->last_->base)
            walk->range_ = nullptr;
    }

    /**
     * A walk over a whole range that may set its summary.  check()
     * runs on each block right after its touch, while it is still in
     * cache; finish() makes the range residentOn the walk's GPU when
     * every block qualified and none of the checked blocks changed
     * later in the walk (e.g. was evicted to make room for a later
     * one), which dropSummary() reports by clearing `range_`.  No
     * second pass over the blocks.
     */
    class SummaryWalk
    {
      public:
        /** @param range the whole range the walk covers. */
        SummaryWalk(UvmDriver &drv, VaRange *range, GpuId gpu)
            : drv_(drv), range_(range), gpu_(gpu)
        {
            drv_.summary_walk_ = this;
        }
        ~SummaryWalk() { drv_.summary_walk_ = nullptr; }
        SummaryWalk(const SummaryWalk &) = delete;
        SummaryWalk &operator=(const SummaryWalk &) = delete;

        void
        check(const VaBlock &b)
        {
            if (!range_)
                return;
            mem::VirtAddr want =
                last_ ? last_->base + mem::kBigPageSize : range_->base;
            bool ok = b.base == want && b.has_gpu_chunk &&
                      b.owner_gpu == gpu_ && b.resident_gpu == b.valid &&
                      b.mapped_gpu == b.valid && b.discarded.none() &&
                      b.link.on == mem::QueueKind::kUsed &&
                      (!last_ || b.link.prev == last_);
            if (ok)
                last_ = &b;
            else
                range_ = nullptr;
        }

        void finish();

      private:
        friend class UvmDriver;
        UvmDriver &drv_;
        VaRange *range_;
        GpuId gpu_;
        /** Last block that qualified (the walk is in address order). */
        const VaBlock *last_ = nullptr;
    };

    /** Report one iteration of a retry loop to the progress sink. */
    void reportProgress(const char *phase, sim::SimTime now)
    {
        if (progress_sink_)
            progress_sink_->onStep(phase, now);
    }

    static constexpr std::uint64_t kEvictionSeed = 42;  ///< kRandom policy

    UvmConfig cfg_;
    sim::FaultInjector injector_;
    sim::Rng eviction_rng_{kEvictionSeed};
    std::uint64_t next_alloc_ordinal_ = 0;
    VaSpace va_space_;
    std::vector<std::unique_ptr<GpuState>> gpus_;
    interconnect::Link peer_link_;
    mem::BackingStore backing_;
    UvmStats counters_;
    TransferObserver *observer_ = nullptr;
    sim::ProgressSink *progress_sink_ = nullptr;
    std::uint64_t invariant_violations_ = 0;
    std::unique_ptr<TransferEngine> xfer_;
    SummaryWalk *summary_walk_ = nullptr;
};

}  // namespace uvmd::uvm

#endif  // UVMD_UVM_DRIVER_HPP
