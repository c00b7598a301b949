/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * A FaultInjector is a seeded source of "things that go wrong":
 * transient DMA descriptor failures, ECC-style bad chunks, mid-run
 * link degradation / copy-engine loss, and spurious allocation
 * failures.  The consumers (TransferEngine, UvmDriver) ask it whether
 * a fault fires at each injection point; every positive answer is
 * tallied here, so tests can reconcile the driver's fault counters
 * against the injector's own book.
 *
 * Determinism rules:
 *  - all draws come from one seeded xoshiro256** stream, so a given
 *    (plan, op sequence) pair always produces the same fault schedule;
 *  - a disabled injector (plan.enabled == false, the default) never
 *    draws, never tallies, and adds no simulated time anywhere — the
 *    simulation is bit-identical to one without an injector.
 */

#ifndef UVMD_SIM_FAULT_INJECTOR_HPP
#define UVMD_SIM_FAULT_INJECTOR_HPP

#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

#define UVMD_FAULT_STATS(X, X2)                                         \
    X(dma_faults)                                                       \
    X(chunk_faults)                                                     \
    X(alloc_faults)                                                     \
    X(link_degrades)                                                    \
    X(engines_offlined)

namespace uvmd::sim {

UVMD_STAT_TABLE(FaultStat, FaultStats, UVMD_FAULT_STATS);

/** The kinds of faults the injector can produce. */
enum class FaultKind : std::uint8_t {
    kDmaTransient,   ///< one DMA descriptor fails, retry may succeed
    kChunkFailure,   ///< ECC-style bad chunk: retire it permanently
    kLinkDegrade,    ///< link bandwidth drops mid-run
    kEngineOffline,  ///< one copy engine stops accepting work
    kAllocFailure,   ///< transient allocation failure under pressure
};

const char *toString(FaultKind kind);

/**
 * Scheduled mid-run interconnect event (plan.link_events): fires once
 * the engine-wide DMA descriptor count crosses the threshold.
 */
struct LinkFaultEvent {
    /** Fire after this many DMA descriptors have been issued. */
    std::uint64_t after_descriptors = 0;

    /** Target link: GPU index, or -1 for the peer fabric. */
    int gpu = 0;

    /** Multiply the link's effective bandwidth (1.0 = no change;
     *  0.5 = halve it).  Applied to both directions. */
    double bandwidth_factor = 1.0;

    /** Copy engine index to take offline (-1 = none). */
    int offline_engine = -1;

    /** Direction of the engine to offline: 0 = H2D, 1 = D2H. */
    int offline_dir = 0;
};

/** Everything the injector may do, with rates; all off by default. */
struct FaultPlan {
    /** Master switch.  False (default) short-circuits every probe:
     *  no RNG draws, no counters, bit-identical timings. */
    bool enabled = false;

    std::uint64_t seed = 1;

    // ---- (a) transient DMA descriptor failures ----

    /** Per-descriptor probability that the transfer must be retried. */
    double dma_fault_rate = 0.0;

    /** Retries per descriptor before the transfer fails for good. */
    int dma_max_retries = 4;

    /** First retry backoff; doubles on each further attempt. */
    SimDuration dma_retry_backoff = microseconds(5);

    // ---- (b) ECC-style chunk failures ----

    /** Per-driver-operation probability that one resident chunk goes
     *  bad and must be retired. */
    double chunk_retire_rate = 0.0;

    /** Never retire below this many usable chunks per GPU. */
    std::uint64_t chunk_retire_floor = 2;

    // ---- (c) mid-run interconnect events ----

    std::vector<LinkFaultEvent> link_events;

    // ---- (d) allocation failure and OOM handling ----

    /** Per-chunk-allocation probability of a transient failure. */
    double alloc_fail_rate = 0.0;

    /** Injected allocation failures tolerated per request before the
     *  injector stands aside and the allocation proceeds. */
    int alloc_max_retries = 3;

    /** On true memory exhaustion, fall back to Section 2.3 remote
     *  access (map host-resident) instead of surfacing an allocation
     *  error.  Off by default: exhaustion surfaces
     *  cudaErrorMemoryAllocation through the runtime. */
    bool oom_remote_fallback = false;
};

class FaultInjector
{
  public:
    FaultInjector() = default;
    explicit FaultInjector(const FaultPlan &plan);

    bool enabled() const { return plan_.enabled; }
    const FaultPlan &plan() const { return plan_; }

    // ------------------------------------------------------------
    // Probes (tally on every positive answer)
    // ------------------------------------------------------------

    /** Does this DMA descriptor (attempt) fail? */
    bool dmaDescriptorFails();

    /** Does this chunk allocation transiently fail? */
    bool allocFails();

    /** Does a resident chunk go bad at this driver operation? */
    bool chunkFails();

    /** Uniform victim index in [0, n).  @pre n > 0. */
    std::uint64_t pickVictim(std::uint64_t n);

    /**
     * Link events whose descriptor threshold @p descriptors_issued has
     * crossed, in threshold order.  Each event is returned exactly
     * once; the caller reports back which ones it applied via
     * noteLinkEventApplied() so the tally stays reconcilable.
     */
    std::vector<LinkFaultEvent>
    takeDueLinkEvents(std::uint64_t descriptors_issued);

    /** Record that a taken link event was actually applied; returns
     *  the number of faults tallied (degrade and offline tally
     *  separately, so a combined event counts twice). */
    int noteLinkEventApplied(const LinkFaultEvent &ev);

    // ------------------------------------------------------------
    // The injector's own book
    // ------------------------------------------------------------

    /** Per-kind tallies (UVMD_FAULT_STATS). */
    StatGroup tally() const { return tally_.group(); }

    /** Total faults injected (all kinds). */
    std::uint64_t totalInjected() const;

  private:
    FaultPlan plan_;
    Rng rng_{1};
    FaultStats tally_;
    std::size_t next_link_event_ = 0;
};

}  // namespace uvmd::sim

#endif  // UVMD_SIM_FAULT_INJECTOR_HPP
