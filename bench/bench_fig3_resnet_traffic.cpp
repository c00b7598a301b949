/**
 * @file
 * Regenerates Figure 3: PCIe traffic of ResNet-53 training under
 * plain UVM across batch sizes, split into the traffic the driver
 * performed vs. the transfers actually required for correctness (the
 * RMT characterization that motivates the discard directive).
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

    banner("Figure 3: PCIe traffic of ResNet-53 (UVM-opt): "
           "performed vs required");

    NetSpec net = NetSpec::resnet53();
    uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();

    trace::Table fig("Figure 3 series (GB over 7 measured batches)");
    fig.header({"Batch size", "Alloc (GB)", "UVM transfers",
                "Actually required", "Redundant share"});
    for (int b : {28, 42, 56, 75, 100, 125, 150}) {
        TrainParams p;
        p.net = net;
        p.batch_size = b;
        TrainResult r = dl::runTraining(
            System::kUvmOpt, p, interconnect::LinkSpec::pcie4(), cfg);
        const RunResult &m = r.measured;
        fig.row({std::to_string(b),
                 trace::fmt(net.allocBytes(b) / 1e9, 1),
                 trace::fmt(m.trafficGb()), trace::fmt(m.required / 1e9),
                 m.trafficTotal() > 0
                     ? trace::fmt(100.0 * m.redundant / m.trafficTotal(),
                                  1) + "%"
                     : "-"});
    }
    fig.print();
    fig.writeCsv("fig3_resnet_traffic.csv");

    std::printf("\nPaper Figure 3 shape: once the batch exceeds GPU "
                "capacity (~56 here), total UVM traffic grows steeply "
                "while the required share is less than half of it.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
