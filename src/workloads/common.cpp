#include "workloads/common.hpp"

#include <optional>
#include <vector>

namespace uvmd::workloads {

const char *
toString(System sys)
{
    switch (sys) {
      case System::kNoUvm:
        return "No-UVM";
      case System::kManualSwap:
        return "ManualSwap";
      case System::kUvmOpt:
        return "UVM-opt";
      case System::kUvmDiscard:
        return "UvmDiscard";
      case System::kUvmDiscardLazy:
        return "UvmDiscardLazy";
    }
    return "?";
}

void
harvest(RunResult &result, cuda::Runtime &rt, trace::Auditor &auditor,
        const Periods &periods)
{
    // finalize() adds to the live state what it would add at the end
    // of the full run: the two states are equal.
    auditor.finalize();
    readCounters(result, rt, auditor);
    for (std::uint64_t RunResult::*c : kRunCounters)
        result.*c += periods.skipped.*c;
    result.periods_simulated = periods.simulated;
    if (periods.simulated > 0)
        result.elapsed = periods.measured.elapsed;
}

void
readCounters(RunResult &result, cuda::Runtime &rt,
             const trace::Auditor &auditor)
{
    using uvm::UvmStat;
    const uvm::UvmDriver &drv = rt.driver();
    result.traffic_h2d = drv.trafficH2d();
    result.traffic_d2h = drv.trafficD2h();
    result.required = auditor.requiredTotal();
    result.redundant = auditor.redundantTotal();
    result.skipped_by_discard = drv.counter(UvmStat::saved_h2d_bytes) +
                                drv.counter(UvmStat::saved_d2h_bytes) +
                                drv.counter(UvmStat::saved_d2d_bytes);
    result.gpu_fault_batches = drv.counter(UvmStat::gpu_fault_batches);
    result.evictions_used = drv.counter(UvmStat::evictions_used);
    result.evictions_discarded = drv.counter(UvmStat::evictions_discarded);
    result.fault_injected = drv.counter(UvmStat::fault_injected);
    result.transfer_retries = drv.counter(UvmStat::transfer_retries);
    result.pages_retired = drv.counter(UvmStat::pages_retired);
    result.oom_fallbacks = drv.counter(UvmStat::oom_fallbacks);
    result.blocks_walked = drv.counter(UvmStat::blocks_walked);
}

Periods
runPeriods(cuda::Runtime &rt, const trace::Auditor &auditor, int count,
           int from, bool may_skip, sim::FunctionRef<void(int)> period)
{
    struct Boundary {
        sim::SimTime ready, host;
        RunResult totals;
    };
    auto boundary = [&] {
        Boundary b{rt.deviceReady(), rt.now(), {}};
        readCounters(b.totals, rt, auditor);
        return b;
    };
    // Digests start at boundary 1 (each reads every block; only No-UVM
    // repeats its entry).  Unskipped, only boundaries read are drained.
    const bool skip = may_skip && fast_forward;
    rt.synchronize();
    std::vector<Boundary> seen;
    seen.reserve(count + 1);
    seen.push_back(boundary());
    std::optional<std::uint64_t> digest;
    for (int j = 0; j < count; ++j) {
        const std::uint64_t calls = rt.hostCalls();
        period(j);
        const bool quiet = rt.hostCalls() == calls;
        if ((skip && quiet) || j + 1 == from || j + 1 == count)
            rt.drain();
        seen.push_back(boundary());
        if (!skip || j + 1 == count)
            continue;
        std::optional<std::uint64_t> next = rt.stateDigest();
        const Boundary &a = seen[j], &b = seen[j + 1];
        const sim::SimDuration lead = a.ready - a.host;
        if (next && next == digest &&
            ((lead == 0 && b.ready == b.host) ||
             (quiet && b.ready - b.host >= lead && lead >= b.host - a.host)))
            break;
        digest = next;
    }
    rt.synchronize();

    // Past the last simulated boundary, each period repeats the last.
    Periods out;
    out.simulated = static_cast<int>(seen.size()) - 1;
    const Boundary &last = seen.back();
    auto at = [&](int j) {
        if (j <= out.simulated)
            return seen[j];
        const Boundary &prev = seen[out.simulated - 1];
        const std::uint64_t k = j - out.simulated;
        Boundary b = last;
        b.ready += static_cast<sim::SimTime>(k) * (last.ready - prev.ready);
        for (std::uint64_t RunResult::*c : kRunCounters)
            b.totals.*c += k * (last.totals.*c - prev.totals.*c);
        return b;
    };
    const Boundary start = at(from), end = at(count);
    out.measured.elapsed = end.ready - start.ready;
    for (std::uint64_t RunResult::*c : kRunCounters) {
        out.measured.*c = end.totals.*c - start.totals.*c;
        out.skipped.*c = end.totals.*c - last.totals.*c;
    }
    return out;
}

}  // namespace uvmd::workloads
