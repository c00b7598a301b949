/**
 * @file
 * Regenerates Figures 5 and 6 from one PCIe-4 training sweep: Figure 6
 * is the throughput of all four networks under No-UVM (while it
 * fits), UVM-opt, UvmDiscard and UvmDiscardLazy; Figure 5 is the PCIe
 * traffic of the same runs under the three UVM systems.  The paper's
 * Figure 5 caption: "UvmDiscard and UvmDiscardLazy fully eliminate
 * RMTs".
 */

#include "dl_sweep.hpp"

/** The harness body; main() turns a sim::FatalError into exit 1. */
static int
runHarness(int argc, char **argv)
{
    using namespace uvmd;
    using namespace uvmd::bench;
    using namespace uvmd::workloads;

    int jobs = parseSweepArgs(argc, argv);
    DlResults results = dlSweep(interconnect::LinkSpec::pcie4(), jobs);

    throughputFigure(6, "PCIe-4", results);
    std::printf("\nPaper Figure 6 shape: all systems are close while "
                "the model fits (UvmDiscard a little behind from "
                "eager unmapping); past capacity UVM-opt drops "
                "steeply and both discard systems keep most of the "
                "throughput, UvmDiscardLazy best.\n");

    dlFigure(5, "DL PCIe traffic vs batch size (PCIe-4)",
             "PCIe traffic, GB over 7 measured batches", "traffic",
             {"Batch", "Alloc (GB)", "UVM-opt", "UvmDiscard",
              "UvmDiscardLazy"},
             results,
             [](auto &row, const dl::NetSpec &net, int batch,
                const DlRuns &runs) {
                 row.push_back(trace::fmt(net.allocBytes(batch) / 1e9, 1));
                 for (System sys : {System::kUvmOpt, System::kUvmDiscard,
                                    System::kUvmDiscardLazy})
                     row.push_back(
                         trace::fmt(runs.at(sys).measured.trafficGb()));
             });

    std::printf("\nPaper Figure 5 shape: traffic is near zero while "
                "the allocation fits (~11.77 GB), then grows steeply "
                "with batch size for UVM-opt; both discard "
                "implementations eliminate the redundant majority of "
                "it.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
