/**
 * @file
 * Regenerates Figure 6: deep-learning training throughput on PCIe-4
 * for all four networks under No-UVM (while it fits), UVM-opt,
 * UvmDiscard and UvmDiscardLazy.
 */

#include <map>

#include "dl_sweep.hpp"

/** The harness body; main() turns a sim::FatalError into exit 1. */
static int
runHarness(int argc, char **argv)
{
    using namespace uvmd;
    using namespace uvmd::bench;
    using namespace uvmd::workloads;

    int jobs = parseSweepArgs(argc, argv);
    banner("Figure 6: DL training throughput (img/sec), PCIe-4");

    std::map<std::string, std::map<int, std::map<System, double>>>
        thr;
    dlSweep({System::kNoUvm, System::kUvmOpt, System::kUvmDiscard,
             System::kUvmDiscardLazy},
            interconnect::LinkSpec::pcie4(), jobs,
            [&](const dl::NetSpec &net, int batch, System sys,
                const dl::TrainResult &r) {
                thr[net.name][batch][sys] = r.throughput;
            });

    for (const auto &net : dl::NetSpec::all()) {
        trace::Table fig("Figure 6 (" + net.name +
                         "): throughput img/sec, PCIe-4");
        fig.header({"Batch", "No-UVM", "UVM-opt", "UvmDiscard",
                    "UvmDiscardLazy"});
        for (int batch : batchGrid(net)) {
            auto &row = thr[net.name][batch];
            fig.row({std::to_string(batch),
                     row.count(System::kNoUvm)
                         ? trace::fmt(row[System::kNoUvm], 1)
                         : "-",
                     trace::fmt(row[System::kUvmOpt], 1),
                     trace::fmt(row[System::kUvmDiscard], 1),
                     trace::fmt(row[System::kUvmDiscardLazy], 1)});
        }
        fig.print();
        fig.writeCsv("fig6_throughput_" + net.name + ".csv");
    }

    std::printf("\nPaper Figure 6 shape: all systems are close while "
                "the model fits (UvmDiscard a little behind from "
                "eager unmapping); past capacity UVM-opt drops "
                "steeply and both discard systems keep most of the "
                "throughput, UvmDiscardLazy best.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
