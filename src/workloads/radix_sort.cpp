#include "workloads/radix_sort.hpp"

namespace uvmd::workloads {

using cuda::KernelDesc;
using uvm::AccessKind;
using uvm::ProcessorId;

namespace {

/** Compute time for a kernel touching @p bytes. */
sim::SimDuration
computeTime(const RadixParams &p, sim::Bytes bytes)
{
    return static_cast<sim::SimDuration>(p.compute_ns_per_kib *
                                         (bytes / sim::kKiB));
}

}  // namespace

RunResult
runRadixSort(System sys, const RadixParams &p,
             interconnect::LinkSpec link, const uvm::UvmConfig &cfg)
{
    RunResult result;
    result.system = sys;
    result.ovsp_ratio = p.ovsp_ratio;

    cuda::Runtime rt(cfg, std::move(link));
    trace::Auditor auditor;
    rt.driver().setObserver(&auditor);

    mem::VirtAddr input = rt.mallocManaged(p.data_bytes, "radix.input");
    mem::VirtAddr temp = rt.mallocManaged(p.data_bytes, "radix.temp");

    Occupier occupier(rt, p.footprint(), p.ovsp_ratio);

    // ---- Pre-processing: host generates keys, uploads them ----
    rt.hostTouch(input, p.data_bytes, AccessKind::kWrite);
    rt.prefetchAsync(input, p.data_bytes, ProcessorId::gpu(0));

    // ---- Measured region: the digit passes ----
    // A pass only enqueues work, so the device runs ahead of the host.
    auto digitPass = [&](int pass) {
        // Local-sort kernel: histogram+scatter reads the input and
        // writes local partitions into temp (the double write models
        // the non-deterministic partition revisits of Section 7.3).
        if (p.use_prefetch) {
            // Re-arm temp after the previous pass's discard.
            rt.prefetchAsync(temp, p.data_bytes, ProcessorId::gpu(0));
        }
        KernelDesc local;
        local.name = "radix.local" + std::to_string(pass);
        local.accesses = {{input, p.data_bytes, AccessKind::kRead},
                          {temp, p.data_bytes, AccessKind::kWrite},
                          {temp, p.data_bytes, AccessKind::kWrite}};
        local.compute = computeTime(p, 3 * p.data_bytes);
        rt.launch(local);

        // The input buffer now holds dead data.  The discard is
        // paired with the re-arming prefetch before the reorder
        // kernel rewrites it.
        discardFor(rt, sys, input, p.data_bytes,
                   /*paired_with_prefetch=*/p.use_prefetch);

        if (p.use_prefetch)
            rt.prefetchAsync(input, p.data_bytes, ProcessorId::gpu(0));
        KernelDesc reorder;
        reorder.name = "radix.reorder" + std::to_string(pass);
        reorder.accesses = {{temp, p.data_bytes, AccessKind::kRead},
                            {input, p.data_bytes, AccessKind::kWrite},
                            {input, p.data_bytes, AccessKind::kWrite}};
        reorder.compute = computeTime(p, 3 * p.data_bytes);
        rt.launch(reorder);

        // And now the temporary is dead, until the next pass's
        // prefetch re-arms it.
        discardFor(rt, sys, temp, p.data_bytes,
                   /*paired_with_prefetch=*/p.use_prefetch);
    };
    const Periods passes =
        runPeriods(rt, auditor, p.passes, 0, true, digitPass);

    // ---- Post-processing: the host consumes the sorted array ----
    rt.hostTouch(input, p.data_bytes, AccessKind::kRead);
    rt.synchronize();

    harvest(result, rt, auditor, passes);
    return result;
}

}  // namespace uvmd::workloads
