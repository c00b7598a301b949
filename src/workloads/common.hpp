/**
 * @file
 * Shared vocabulary of the evaluation workloads.
 *
 * Every experiment in the paper compares *systems* (Section 7.1):
 *
 *   - No-UVM:          explicit cudaMalloc/cudaMemcpy (Listing 1/4);
 *   - ManualSwap:      the PyTorch-LMS-style per-layer swap policy
 *                      with a caching allocator (Listing 5, Table 1);
 *   - UVM-opt:         UVM + prefetching + overlap (the baseline);
 *   - UvmDiscard:      UVM-opt + eager discard;
 *   - UvmDiscardLazy:  UVM-opt + lazy discard where the discard is
 *                      paired with a prefetch, eager elsewhere
 *                      (Section 7.1's description).
 *
 * and runs them at oversubscription ratios created by an idle
 * occupier program (Occupier below).
 */

#ifndef UVMD_WORKLOADS_COMMON_HPP
#define UVMD_WORKLOADS_COMMON_HPP

#include <string>

#include "cuda/runtime.hpp"
#include "sim/function.hpp"
#include "trace/auditor.hpp"

namespace uvmd::workloads {

enum class System {
    kNoUvm,
    kManualSwap,
    kUvmOpt,
    kUvmDiscard,
    kUvmDiscardLazy,
};

const char *toString(System sys);

constexpr bool
usesUvm(System sys)
{
    return sys == System::kUvmOpt || sys == System::kUvmDiscard ||
           sys == System::kUvmDiscardLazy;
}

constexpr bool
usesDiscard(System sys)
{
    return sys == System::kUvmDiscard || sys == System::kUvmDiscardLazy;
}

/**
 * Issue a discard for @p sys at a call site.
 *
 * UvmDiscardLazy replaces only the discards that are paired with a
 * later re-arming prefetch (Section 7.1); unpaired sites stay eager.
 * No-op for non-discard systems.
 */
inline void
discardFor(cuda::Runtime &rt, System sys, mem::VirtAddr addr,
           sim::Bytes size, bool paired_with_prefetch,
           cuda::StreamId stream = 0)
{
    if (!usesDiscard(sys))
        return;
    uvm::DiscardMode mode =
        (sys == System::kUvmDiscardLazy && paired_with_prefetch)
            ? uvm::DiscardMode::kLazy
            : uvm::DiscardMode::kEager;
    rt.discardAsync(addr, size, mode, stream);
}

/**
 * The Section 7.1 oversubscription methodology: an idle GPU program
 * pins memory so that the application's footprint divided by the
 * remaining usable memory equals the requested ratio.
 */
class Occupier
{
  public:
    /**
     * @param ratio  oversubscription ratio; <= 1.0 means "<100%"
     *               (no occupation).
     */
    Occupier(cuda::Runtime &rt, sim::Bytes app_footprint, double ratio,
             uvm::GpuId gpu = 0)
        : rt_(rt), gpu_(gpu)
    {
        if (ratio <= 1.0)
            return;
        sim::Bytes usable = rt.driver().allocator(gpu).usableBytes();
        sim::Bytes target_avail =
            static_cast<sim::Bytes>(app_footprint / ratio);
        if (target_avail >= usable)
            return;
        reserved_ = usable - target_avail;
        rt.driver().reserveGpuMemory(gpu, reserved_);
    }

    ~Occupier()
    {
        if (reserved_ > 0)
            rt_.driver().unreserveGpuMemory(gpu_, reserved_);
    }

    Occupier(const Occupier &) = delete;
    Occupier &operator=(const Occupier &) = delete;

    sim::Bytes reserved() const { return reserved_; }

  private:
    cuda::Runtime &rt_;
    uvm::GpuId gpu_;
    sim::Bytes reserved_ = 0;
};

/** Outcome of one experiment run. */
struct RunResult {
    System system = System::kUvmOpt;
    double ovsp_ratio = 0.0;

    /** Measured region wall-clock (excludes input pre-processing,
     *  matching the paper's methodology). */
    sim::SimDuration elapsed = 0;

    /** Interconnect traffic over the whole run. */
    sim::Bytes traffic_h2d = 0;
    sim::Bytes traffic_d2h = 0;

    /** Auditor classification (whole run). */
    sim::Bytes required = 0;
    sim::Bytes redundant = 0;
    /** Transfers the discard state let skip (saved_*_bytes). */
    sim::Bytes skipped_by_discard = 0;

    std::uint64_t gpu_fault_batches = 0;
    std::uint64_t evictions_used = 0;
    std::uint64_t evictions_discarded = 0;

    // Fault-injection outcomes (zero when injection is disabled).
    std::uint64_t fault_injected = 0;
    std::uint64_t transfer_retries = 0;
    std::uint64_t pages_retired = 0;
    std::uint64_t oom_fallbacks = 0;

    /** Blocks visited by the driver's per-block walks (host work). */
    std::uint64_t blocks_walked = 0;

    /** Periods (DL batches, radix passes) simulated: host work. */
    int periods_simulated = 0;

    sim::Bytes
    trafficTotal() const
    {
        return traffic_h2d + traffic_d2h;
    }

    double trafficGb() const
    {
        return static_cast<double>(trafficTotal()) / 1e9;
    }
};

/** The counter-derived fields of RunResult, which harvest() fills:
 *  running totals that only grow while a run goes on. */
inline constexpr std::uint64_t RunResult::*kRunCounters[] = {
    &RunResult::traffic_h2d,         &RunResult::traffic_d2h,
    &RunResult::required,            &RunResult::redundant,
    &RunResult::skipped_by_discard,  &RunResult::gpu_fault_batches,
    &RunResult::evictions_used,      &RunResult::evictions_discarded,
    &RunResult::fault_injected,      &RunResult::transfer_retries,
    &RunResult::pages_retired,       &RunResult::oom_fallbacks,
    &RunResult::blocks_walked,
};

/** Fill the kRunCounters fields of @p result from a run so far,
 *  without closing the Auditor's open transfers. */
void readCounters(RunResult &result, cuda::Runtime &rt,
                  const trace::Auditor &auditor);

/** Test switch, set between runs: unset, runPeriods() skips none. */
inline bool fast_forward = true;

struct Periods {
    RunResult measured;  ///< elapsed, kRunCounters: boundary from..count
    RunResult skipped;   ///< kRunCounters the unsimulated periods add
    int simulated = 0;
};

/**
 * Run @p count periods, @p period(j) for j = 0, 1, ..., between two
 * synchronize() calls; every period must make the same calls.
 * Steady-state fast-forward (DESIGN.md §4): once the state after
 * period j equals the one before it, the run stops and repeats period
 * j for the rest.  A boundary is drained if the period before it made
 * no hostCalls() call.  Period j repeats only if (i) the state
 * digests at its ends are equal, and either the host is behind the
 * device at neither end or (ii) the host's lead (deviceReady() -
 * now()) did not shrink, (iii) covers the host time the period took
 * and (iv) the period made no hostCalls() call.  Off with @p may_skip
 * or fast_forward unset.
 */
Periods runPeriods(cuda::Runtime &rt, const trace::Auditor &auditor,
                   int count, int from, bool may_skip,
                   sim::FunctionRef<void(int)> period);

/** Fill the kRunCounters fields of @p result from a finished run:
 *  auditor.finalize(), then readCounters(); after runPeriods(), add
 *  the @p periods not simulated and set elapsed to the measured
 *  region. */
void harvest(RunResult &result, cuda::Runtime &rt,
             trace::Auditor &auditor, const Periods &periods = {});

}  // namespace uvmd::workloads

#endif  // UVMD_WORKLOADS_COMMON_HPP
