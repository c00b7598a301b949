/**
 * @file
 * Regenerates Figure 7: deep-learning training throughput on PCIe-3
 * (same sweep as Figure 6 on the slower link — the oversubscription
 * penalty and the discard benefit are both larger).
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
    banner("Figure 7: DL training throughput (img/sec), PCIe-3");

    std::map<std::string, std::map<int, std::map<System, double>>>
        thr;
    dlSweep({System::kNoUvm, System::kUvmOpt, System::kUvmDiscard,
             System::kUvmDiscardLazy},
            interconnect::LinkSpec::pcie3(), jobs,
            [&](const dl::NetSpec &net, int batch, System sys,
                const dl::TrainResult &r) {
                thr[net.name][batch][sys] = r.throughput;
            });

    for (const auto &net : dl::NetSpec::all()) {
        trace::Table fig("Figure 7 (" + net.name +
                         "): throughput img/sec, PCIe-3");
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
        fig.writeCsv("fig7_throughput_" + net.name + ".csv");
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
