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
    uvm::UvmDriver &drv = rt.driver();
    result.traffic_h2d = drv.trafficH2d();
    result.traffic_d2h = drv.trafficD2h();
    result.required = auditor.requiredTotal();
    result.redundant = auditor.redundantTotal();
    result.skipped_by_discard =
        auditor.skippedH2d() + auditor.skippedD2h();
    result.gpu_fault_batches = drv.counters().get("gpu_fault_batches");
    result.evictions_used = drv.counters().get("evictions_used");
    result.evictions_discarded =
        drv.counters().get("evictions_discarded");
    result.fault_injected = drv.counters().get("fault_injected");
    result.transfer_retries = drv.counters().get("transfer_retries");
    result.pages_retired = drv.counters().get("pages_retired");
    result.oom_fallbacks = drv.counters().get("oom_fallbacks");
    result.blocks_walked = drv.counters().get("blocks_walked");
}

}  // namespace uvmd::workloads
