/**
 * @file
 * Tooling example: the Auditor's per-range attribution diagnosing
 * where to insert the discard directive.
 *
 * The paper's Section 8 points at compiler-assisted detection of
 * discard insertion points as an extension; uvmd ships that analysis
 * as a driver-side tool.  This demo runs a small training-like loop
 * under plain UVM, prints the ranked report, then applies
 * the suggested discards and shows the report go quiet — and the
 * traffic drop.
 *
 * Usage: ./examples/advisor_demo
 */

#include <cstdio>
#include <sstream>
#include <string>

#include "cuda/runtime.hpp"
#include "trace/auditor.hpp"

namespace {

using namespace uvmd;

struct LoopResult {
    sim::SimDuration elapsed;
    sim::Bytes traffic;
    std::string advisor_report;
};

LoopResult
runLoop(bool with_discards)
{
    uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    cfg.gpu_memory = 48 * mem::kBigPageSize;  // 96 MiB GPU

    cuda::Runtime runtime(cfg, interconnect::LinkSpec::pcie4());
    cuda::Runtime *rt = &runtime;
    trace::Auditor auditor;
    rt->driver().setObserver(&auditor);

    const sim::Bytes act = 16 * mem::kBigPageSize;   // activations
    const sim::Bytes ws = 12 * mem::kBigPageSize;    // workspace
    const sim::Bytes weights = 12 * mem::kBigPageSize;
    const sim::Bytes opt = 20 * mem::kBigPageSize;   // optimizer state
    mem::VirtAddr activations = rt->mallocManaged(act, "activations");
    mem::VirtAddr workspace = rt->mallocManaged(ws, "workspace");
    mem::VirtAddr params = rt->mallocManaged(weights, "weights");
    mem::VirtAddr momentum = rt->mallocManaged(opt, "momentum");

    sim::SimTime t0 = rt->now();
    for (int step = 0; step < 8; ++step) {
        rt->prefetchAsync(activations, act, uvm::ProcessorId::gpu(0));
        rt->prefetchAsync(workspace, ws, uvm::ProcessorId::gpu(0));

        cuda::KernelDesc fwd;
        fwd.name = "forward";
        fwd.accesses = {{params, weights, uvm::AccessKind::kRead},
                        {workspace, ws, uvm::AccessKind::kReadWrite},
                        {activations, act, uvm::AccessKind::kWrite}};
        fwd.compute = sim::microseconds(400);
        rt->launch(fwd);

        cuda::KernelDesc bwd;
        bwd.name = "backward";
        bwd.accesses = {{activations, act, uvm::AccessKind::kRead},
                        {workspace, ws, uvm::AccessKind::kReadWrite},
                        {params, weights, uvm::AccessKind::kReadWrite}};
        bwd.compute = sim::microseconds(800);
        rt->launch(bwd);

        // After backward, the activations and workspace are dead.
        if (with_discards) {
            rt->discardAsync(activations, act,
                             uvm::DiscardMode::kLazy);
            rt->discardAsync(workspace, ws, uvm::DiscardMode::kLazy);
        }

        // The optimizer phase needs the GPU memory the dead buffers
        // still occupy — this is where the eviction RMTs happen.
        cuda::KernelDesc optimizer;
        optimizer.name = "optimizer";
        optimizer.accesses = {
            {params, weights, uvm::AccessKind::kReadWrite},
            {momentum, opt, uvm::AccessKind::kReadWrite}};
        optimizer.compute = sim::microseconds(600);
        rt->launch(optimizer);
    }
    rt->synchronize();
    std::ostringstream report;
    auditor.report(report);
    return {rt->now() - t0, rt->driver().totalTrafficBytes(),
            report.str()};
}

}  // namespace

int
main()
{
    std::printf("=== pass 1: plain UVM, advisor attached ===\n");
    LoopResult plain = runLoop(/*with_discards=*/false);
    std::printf("time %s, PCIe traffic %s\n\n%s",
                sim::formatDuration(plain.elapsed).c_str(),
                sim::formatBytes(plain.traffic).c_str(),
                plain.advisor_report.c_str());

    std::printf("\n=== pass 2: discards inserted as advised ===\n");
    LoopResult fixed = runLoop(/*with_discards=*/true);
    std::printf("time %s, PCIe traffic %s\n\n%s",
                sim::formatDuration(fixed.elapsed).c_str(),
                sim::formatBytes(fixed.traffic).c_str(),
                fixed.advisor_report.c_str());

    std::printf("\nspeedup %.2fx, traffic reduced %.1f%%\n",
                static_cast<double>(plain.elapsed) / fixed.elapsed,
                100.0 * (1.0 - static_cast<double>(fixed.traffic) /
                                   plain.traffic));
    return 0;
}
