/**
 * @file
 * The steady-state fast-forward of workloads::runPeriods against the
 * full simulation over every DL grid and every radix run the
 * harnesses make.
 *
 * DL: Figures 5 and 6 (PCIe-4), Figure 7 (PCIe-3), Figure 3 and
 * Table 1.  Every TrainResult field must match exactly, every UVM
 * run must reach its steady state within three batches, and the
 * measured required and redundant bytes of every UVM run must add up
 * to its traffic.  The Figure 5 grid also checks a paper claim where
 * the model fits.
 *
 * Radix: the Tables 5-6 grid on both links and the two Section 7.3
 * no-prefetch runs must match field for field and stop after two
 * passes; the bench_ablation_fault_recovery configurations must
 * match and, with faults injected, simulate every pass.
 *
 * Label `slow`: registered in the release tree, where scripts/ci.sh
 * runs it.
 */

#include <gtest/gtest.h>

#include <map>

#include "bench_util.hpp"
#include "fast_forward.hpp"

namespace uvmd::test {
namespace {

using workloads::System;

TEST(FastForwardGrid, Figures5And6OnPcie4)
{
    const std::vector<DlCell> cells = fig6Grid();
    const std::vector<workloads::dl::TrainResult> runs =
        expectFastForwardExact(cells, interconnect::LinkSpec::pcie4());
    ASSERT_EQ(runs.size(), cells.size());

    // Where the model fits, all that discarding can save is traffic
    // UVM-opt performs for nothing: UvmDiscard's savings over the
    // measured batches are at most UVM-opt's redundant bytes.
    const sim::Bytes gpu_memory = uvm::UvmConfig::rtx3080ti().gpu_memory;
    std::map<std::pair<std::string, int>,
             std::map<System, const workloads::RunResult *>>
        figure5;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const workloads::dl::TrainParams &p = cells[i].second;
        if (p.net.allocBytes(p.batch_size) <= gpu_memory)
            figure5[{p.net.name, p.batch_size}][cells[i].first] =
                &runs[i].measured;
    }
    for (const auto &[cell, sys] : figure5) {
        const workloads::RunResult &opt = *sys.at(System::kUvmOpt);
        const workloads::RunResult &disc = *sys.at(System::kUvmDiscard);
        EXPECT_LE(opt.trafficTotal(), disc.trafficTotal() + opt.redundant)
            << cell.first << " batch " << cell.second;
    }
    EXPECT_EQ(figure5.size(), 12u);
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

TEST(FastForwardGrid, RadixTables5And6AndSection73)
{
    // bench_radix_tables5_6: paperTables' grid, then the Section 7.3
    // no-prefetch pair on PCIe-3.
    std::vector<RadixCell> cells;
    for (const interconnect::LinkSpec &link :
         {interconnect::LinkSpec::pcie3(), interconnect::LinkSpec::pcie4()}) {
        for (double ratio : bench::ovspRatios()) {
            for (System sys : {System::kUvmOpt, System::kUvmDiscard,
                               System::kUvmDiscardLazy}) {
                workloads::RadixParams p;
                p.ovsp_ratio = ratio;
                cells.push_back({sys, p, link});
            }
        }
    }
    workloads::RadixParams noprefetch;
    noprefetch.use_prefetch = false;
    for (System sys : {System::kUvmOpt, System::kUvmDiscard})
        cells.push_back({sys, noprefetch, interconnect::LinkSpec::pcie3()});
    ASSERT_EQ(cells.size(), 26u);
    for (int simulated : expectRadixFastForwardExact(cells))
        EXPECT_EQ(simulated, 2);
}

TEST(FastForwardGrid, RadixFaultRecoveryAblation)
{
    // bench_ablation_fault_recovery's six configurations.
    workloads::RadixParams p;
    p.data_bytes = 400'000'000;
    p.passes = 4;
    p.ovsp_ratio = 1.25;
    std::vector<RadixCell> cells;
    for (double retire_rate : {0.0, 0.1}) {
        for (double rate : {0.0, 1e-4, 1e-3}) {
            RadixCell c{System::kUvmDiscard, p,
                        interconnect::LinkSpec::pcie4()};
            if (rate > 0.0) {
                c.cfg.faults.enabled = true;
                c.cfg.faults.seed = 42;
                c.cfg.faults.dma_fault_rate = rate;
                c.cfg.faults.dma_max_retries = 16;
                c.cfg.faults.chunk_retire_rate = retire_rate;
                c.cfg.faults.chunk_retire_floor = 8;
            }
            cells.push_back(c);
        }
    }
    const std::vector<int> simulated = expectRadixFastForwardExact(cells);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].cfg.faults.enabled) {
            EXPECT_EQ(simulated[i], p.passes) << "config " << i;
        }
    }
}

}  // namespace
}  // namespace uvmd::test
