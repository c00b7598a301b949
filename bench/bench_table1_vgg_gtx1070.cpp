/**
 * @file
 * Regenerates Table 1: VGG-16 training throughput (img/sec) and PCIe
 * traffic (GB) on a GTX 1070 (8 GB) for batch sizes 40-80, comparing
 * the PyTorch-LMS-style manual swap policy against Darknet-UVM with
 * and without the discard directive.
 *
 * The GTX-1070 setup trains smaller inputs than the Section 7.5
 * 3080Ti runs (oversubscription there starts at batch 60); the model
 * zoo's VGG-16 is rescaled so the allocation crosses 8 GB at the same
 * batch size, and the Pascal GPU's compute rate is derated.
 */

#include "bench_util.hpp"
#include "workloads/dl/trainer.hpp"

/** The harness body; main() turns a sim::FatalError into exit 1. */
static int
runHarness(int, char **)
{
    using namespace uvmd;
    using namespace uvmd::bench;
    using namespace uvmd::workloads;
    using dl::NetSpec;
    using dl::TrainParams;
    using dl::TrainResult;

    banner("Table 1: VGG-16 on GTX 1070 (8 GB), PCIe-3");

    // Rescale to the GTX-1070 training setup: activations so that
    // alloc(60) ~= 8 GB, and roughly a quarter of the 3080Ti's
    // compute rate.
    NetSpec net = NetSpec::vgg16().scaledActivations(0.82);
    net.fwd_ns_per_sample = static_cast<sim::SimDuration>(
        net.fwd_ns_per_sample * 4.4);

    uvm::UvmConfig cfg = uvm::UvmConfig::gtx1070();
    const int batches[] = {40, 50, 60, 70, 80};
    const System systems[] = {System::kManualSwap, System::kUvmOpt,
                              System::kUvmDiscard};

    trace::Table t1("Table 1: throughput(img/sec)/PCIe traffic(GB)");
    t1.header({"System", "40", "50", "60", "70", "80"});
    for (System sys : systems) {
        std::vector<std::string> row{
            sys == System::kManualSwap
                ? "PyTorch-LMS (manual swap)"
                : sys == System::kUvmOpt ? "DarkNet-UVM"
                                         : "DarkNet-Discard"};
        for (int b : batches) {
            TrainParams p;
            p.net = net;
            p.batch_size = b;
            TrainResult r = dl::runTraining(
                sys, p, interconnect::LinkSpec::pcie3(), cfg);
            row.push_back(trace::fmt(r.throughput, 0) + "/" +
                          trace::fmt(r.measured.trafficGb(), 0));
        }
        t1.row(row);
    }
    t1.print();
    t1.writeCsv("table1_vgg_gtx1070.csv");

    trace::Table p1("Paper Table 1 (reference)");
    p1.header({"System", "40", "50", "60", "70", "80"});
    p1.row({"PyTorch-LMS", "16/112", "17/118", "17/148", "19/113",
            "18/150"});
    p1.row({"DarkNet-UVM", "29/2", "29/2", "25/45", "22/104",
            "20/152"});
    p1.row({"DarkNet-Discard", "29/2", "29/2", "28/10", "26/34",
            "24/58"});
    p1.print();
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
