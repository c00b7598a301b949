/**
 * @file
 * Ablation of the Section 5.7 fully-prepared tracking.  When a
 * discarded page is re-used and its surviving chunk was never fully
 * prepared, the whole 2 MB chunk must be zeroed; the tracking avoids
 * that zeroing for chunks that are known fully prepared.  With
 * tracking disabled, every discarded-page re-arm re-zeroes the chunk.
 */

#include "bench_util.hpp"
#include "cuda/runtime.hpp"
#include "sweep_runner.hpp"

namespace {

using namespace uvmd;

struct Outcome {
    sim::SimDuration elapsed;
    std::uint64_t rezero_ops;
};

Outcome
runScenario(bool track)
{
    uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    cfg.gpu_memory = 256 * mem::kBigPageSize;
    cfg.track_fully_prepared = track;

    cuda::Runtime rt(cfg, interconnect::LinkSpec::pcie4());
    const sim::Bytes buf_size = 128 * mem::kBigPageSize;
    mem::VirtAddr buf = rt.mallocManaged(buf_size, "abl.buf");

    sim::SimTime start = rt.now();
    for (int iter = 0; iter < 32; ++iter) {
        // Produce into the whole buffer (fully prepares the chunks),
        // discard it, and re-arm it with the mandatory prefetch.
        rt.prefetchAsync(buf, buf_size, uvm::ProcessorId::gpu(0));
        cuda::KernelDesc produce;
        produce.name = "abl.produce";
        produce.accesses = {{buf, buf_size, uvm::AccessKind::kWrite}};
        produce.compute = sim::microseconds(200);
        rt.launch(produce);
        rt.discardAsync(buf, buf_size, uvm::DiscardMode::kEager);
    }
    rt.synchronize();

    Outcome out;
    out.elapsed = rt.now() - start;
    out.rezero_ops = rt.driver().counters().get("chunk_rezero_ops");
    return out;
}

}  // namespace

/** The harness body; main() turns a sim::FatalError into exit 1. */
static int
runHarness(int argc, char **argv)
{
    using namespace uvmd;
    using namespace uvmd::bench;

    int jobs = parseSweepArgs(argc, argv);
    banner("Ablation: fully-prepared tracking (Section 5.7)");

    trace::Table table(
        "Re-arming discarded chunks with/without tracking");
    table.header({"Tracking", "Runtime (ms)", "Whole-chunk re-zeroes"});
    const bool track_grid[] = {true, false};
    runIndexedSweep(
        jobs, 2, [&](std::size_t i) { return runScenario(track_grid[i]); },
        [&](std::size_t i, Outcome &&o) {
            table.row({track_grid[i] ? "on (paper)" : "off",
                       trace::fmt(sim::toMilliseconds(o.elapsed), 2),
                       std::to_string(o.rezero_ops)});
        });
    table.print();
    table.writeCsv("ablation_prepared.csv");

    std::printf("\nExpected: with tracking on, fully-prepared chunks "
                "re-arm without any zeroing; with tracking off every "
                "re-arm pays a whole-chunk zero on the GPU copy "
                "engine.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
