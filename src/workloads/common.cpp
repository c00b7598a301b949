#include "workloads/common.hpp"

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
harvest(RunResult &result, cuda::Runtime &rt, trace::Auditor &auditor)
{
    auditor.finalize();
    readCounters(result, rt, auditor);
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

}  // namespace uvmd::workloads
