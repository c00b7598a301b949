/**
 * @file
 * The steady-state fast-forward of dl::runTraining against the full
 * simulation over every DL grid the harnesses train: Figures 5 and 6
 * (PCIe-4), Figure 7 (PCIe-3), Figure 3 and Table 1.  Every
 * TrainResult field must match exactly, and every UVM run must reach
 * its steady state within three batches.  Label `slow`: registered in
 * the release tree, where scripts/ci.sh runs it.
 */

#include <gtest/gtest.h>

#include "dl_fast_forward.hpp"

namespace uvmd::test {
namespace {

using workloads::System;

TEST(FastForwardGrid, Figures5And6OnPcie4)
{
    expectFastForwardExact(fig6Grid(), interconnect::LinkSpec::pcie4());
}

TEST(FastForwardGrid, Figure7OnPcie3)
{
    expectFastForwardExact(fig6Grid(), interconnect::LinkSpec::pcie3());
}

TEST(FastForwardGrid, Figure3ResNetUvmOpt)
{
    std::vector<DlCell> cells;
    for (int batch : {28, 42, 56, 75, 100, 125, 150}) {
        workloads::dl::TrainParams p;
        p.net = workloads::dl::NetSpec::resnet53();
        p.batch_size = batch;
        cells.emplace_back(System::kUvmOpt, p);
    }
    expectFastForwardExact(cells, interconnect::LinkSpec::pcie4());
}

TEST(FastForwardGrid, Table1VggOnGtx1070)
{
    // bench_table1_vgg_gtx1070's rescaled network.
    workloads::dl::NetSpec net =
        workloads::dl::NetSpec::vgg16().scaledActivations(0.82);
    net.fwd_ns_per_sample =
        static_cast<sim::SimDuration>(net.fwd_ns_per_sample * 4.4);
    std::vector<DlCell> cells;
    for (System sys :
         {System::kManualSwap, System::kUvmOpt, System::kUvmDiscard}) {
        for (int batch : {40, 50, 60, 70, 80}) {
            workloads::dl::TrainParams p;
            p.net = net;
            p.batch_size = batch;
            cells.emplace_back(sys, p);
        }
    }
    expectFastForwardExact(cells, interconnect::LinkSpec::pcie3(),
                           uvm::UvmConfig::gtx1070());
}

}  // namespace
}  // namespace uvmd::test
