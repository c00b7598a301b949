/**
 * @file
 * Ablation of the Section 5.4 granularity policy.  The paper's
 * discard implementation prefers whole 2 MB blocks and ignores
 * partial ranges that would split a 2 MB GPU mapping; the ablation
 * honours them, splitting mappings into 4 KB PTEs.
 *
 * The scenario discards every other 128 KB stripe of a large
 * GPU-resident buffer under memory pressure, then reuses the buffer:
 * the policy trades discard coverage (more skipped transfers when
 * splitting) against mapping-split costs and the fragmented DMA of
 * the surviving stripes (Figure 4's small-transfer penalty paid per
 * fragment).
 */

#include "bench_util.hpp"
#include "cuda/runtime.hpp"
#include "sweep_runner.hpp"

namespace {

using namespace uvmd;

struct Outcome {
    sim::SimDuration elapsed;
    sim::Bytes traffic;
    std::uint64_t splits;
    std::uint64_t ignored;
    sim::Bytes skipped;
};

Outcome
runScenario(bool honour_partial)
{
    uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    cfg.gpu_memory = 64 * mem::kBigPageSize;
    cfg.partial_discard_splits = honour_partial;

    cuda::Runtime rt(cfg, interconnect::LinkSpec::pcie4());
    const sim::Bytes buf_size = 48 * mem::kBigPageSize;
    mem::VirtAddr buf = rt.mallocManaged(buf_size, "abl.buf");
    mem::VirtAddr spill =
        rt.mallocManaged(40 * mem::kBigPageSize, "abl.spill");

    // Populate from the host so evictions have data to (not) move.
    rt.hostTouch(buf, buf_size, uvm::AccessKind::kWrite);

    sim::SimTime start = rt.now();
    for (int iter = 0; iter < 8; ++iter) {
        rt.prefetchAsync(buf, buf_size, uvm::ProcessorId::gpu(0));
        cuda::KernelDesc use;
        use.name = "abl.use";
        use.accesses = {{buf, buf_size, uvm::AccessKind::kReadWrite}};
        use.compute = sim::microseconds(500);
        rt.launch(use);
        // Discard every other 128 KB stripe of each block: an
        // interleaved partial pattern (dead hash buckets, say) that
        // would shred a 2 MB mapping into fragments if honoured.
        const sim::Bytes stripe = 128 * sim::kKiB;
        for (sim::Bytes off = 0; off < buf_size;
             off += 2 * stripe) {
            rt.discardAsync(buf + off, stripe,
                            uvm::DiscardMode::kEager);
        }
        // Memory pressure: pull the spill buffer through the GPU.
        rt.prefetchAsync(spill, 40 * mem::kBigPageSize,
                         uvm::ProcessorId::gpu(0));
        cuda::KernelDesc touch;
        touch.name = "abl.spill";
        touch.accesses = {{spill, 40 * mem::kBigPageSize,
                           uvm::AccessKind::kReadWrite}};
        touch.compute = sim::microseconds(500);
        rt.launch(touch);
    }
    rt.synchronize();

    Outcome out;
    out.elapsed = rt.now() - start;
    out.traffic = rt.driver().totalTrafficBytes();
    out.splits = rt.driver().counters().get("gpu_mapping_splits");
    out.ignored =
        rt.driver().counters().get("discard_ignored_partial");
    out.skipped = rt.driver().counters().get("saved_d2h_bytes") +
                  rt.driver().counters().get("saved_h2d_bytes");
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
    banner("Ablation: partial-discard granularity (Section 5.4)");

    trace::Table table("Partial discards: ignore (paper) vs split");
    table.header({"Policy", "Runtime (ms)", "Traffic (GB)",
                  "Mapping splits", "Partial discards ignored",
                  "Transfers skipped (GB)"});
    const bool honour_grid[] = {false, true};
    runIndexedSweep(
        jobs, 2, [&](std::size_t i) { return runScenario(honour_grid[i]); },
        [&](std::size_t i, Outcome &&o) {
            table.row({honour_grid[i] ? "split 2MB mappings"
                                      : "ignore (paper)",
                       trace::fmt(sim::toMilliseconds(o.elapsed), 1),
                       trace::fmt(o.traffic / 1e9),
                       std::to_string(o.splits),
                       std::to_string(o.ignored),
                       trace::fmt(o.skipped / 1e9)});
        });
    table.print();
    table.writeCsv("ablation_granularity.csv");

    std::printf("\nExpected: the paper policy skips nothing on "
                "big-mapped blocks but keeps 2 MB mappings intact; "
                "splitting saves some transfers at the cost of "
                "mapping splits and 4 KB-grained migrations of the "
                "surviving quarter of every block.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
