/**
 * @file
 * Domain example: training a deep neural network that oversubscribes
 * GPU memory (the paper's headline use case — Listing 6).
 *
 * Trains one of the four evaluation networks at a configurable batch
 * size under every memory system and reports, over the measured
 * batches, throughput, traffic and the Auditor's required/redundant
 * split of it.  For the UVM systems required + redundant is the
 * traffic.  No-UVM and ManualSwap move their data with explicit
 * copies, which the Auditor does not classify: their split is 0/0.
 *
 * Usage:  ./examples/dl_training [net] [batch]
 *         net in {vgg16, darknet19, resnet53, rnn}, default resnet53
 *         batch default 90 (oversubscribes the 11.77 GB 3080Ti)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "workloads/dl/trainer.hpp"

int
main(int argc, char **argv)
{
    using namespace uvmd;
    using namespace uvmd::workloads;
    using dl::NetSpec;

    NetSpec net = NetSpec::resnet53();
    if (argc > 1) {
        if (!std::strcmp(argv[1], "vgg16"))
            net = NetSpec::vgg16();
        else if (!std::strcmp(argv[1], "darknet19"))
            net = NetSpec::darknet19();
        else if (!std::strcmp(argv[1], "rnn"))
            net = NetSpec::rnn();
        else if (std::strcmp(argv[1], "resnet53")) {
            std::fprintf(stderr, "unknown network '%s'\n", argv[1]);
            return 1;
        }
    }
    int batch = argc > 2 ? std::atoi(argv[2]) : 90;

    uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    std::printf("%s, batch %d: CUDA allocation %.1f GB on a %.2f GB "
                "GPU%s\n\n",
                net.name.c_str(), batch, net.allocBytes(batch) / 1e9,
                cfg.gpu_memory / 1e9,
                net.allocBytes(batch) > cfg.gpu_memory
                    ? " (oversubscribed)"
                    : "");

    std::printf("%-16s %12s %12s %12s %12s\n", "system", "img/sec",
                "traffic GB", "required GB", "redundant GB");
    for (System sys : {System::kNoUvm, System::kManualSwap,
                       System::kUvmOpt, System::kUvmDiscard,
                       System::kUvmDiscardLazy}) {
        if (sys == System::kNoUvm &&
            net.allocBytes(batch) > cfg.gpu_memory) {
            std::printf("%-16s  would crash: cudaMalloc exceeds GPU "
                        "memory (Listing 4)\n",
                        toString(sys));
            continue;
        }
        dl::TrainParams p;
        p.net = net;
        p.batch_size = batch;
        dl::TrainResult r = dl::runTraining(
            sys, p, interconnect::LinkSpec::pcie4(), cfg);
        std::printf("%-16s %12.1f %12.2f %12.2f %12.2f\n",
                    toString(sys), r.throughput, r.measured.trafficGb(),
                    r.measured.required / 1e9,
                    r.measured.redundant / 1e9);
    }

    std::printf("\nForward activations, backward deltas and the CUDNN\n"
                "workspace are all dead shortly after they are used;\n"
                "Listing-6-style discards after each backward step\n"
                "keep the eviction process from ever moving them.\n");
    return 0;
}
