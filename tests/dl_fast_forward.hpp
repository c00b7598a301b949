/**
 * @file
 * Helpers for the fast-forward differential tests: the Figure 5/6
 * cells of some networks, and an exact on/off comparison of
 * dl::runTraining over a list of cells.
 */

#ifndef UVMD_TESTS_DL_FAST_FORWARD_HPP
#define UVMD_TESTS_DL_FAST_FORWARD_HPP

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dl_sweep.hpp"
#include "workloads/dl/trainer.hpp"

namespace uvmd::test {

using DlCell = std::pair<workloads::System, workloads::dl::TrainParams>;

/** The cells bench::dlSweep trains for the networks in @p nets (all
 *  when empty): each batch of the network's grid under the Figure 6
 *  systems, No-UVM only where it fits. */
inline std::vector<DlCell>
fig6Grid(const std::set<std::string> &nets = {})
{
    const uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    std::vector<DlCell> cells;
    for (const workloads::dl::NetSpec &net :
         workloads::dl::NetSpec::all()) {
        if (!nets.empty() && !nets.count(net.name))
            continue;
        for (int batch : bench::batchGrid(net)) {
            workloads::dl::TrainParams p;
            p.net = net;
            p.batch_size = batch;
            for (workloads::System sys : bench::kDlSystems) {
                if (sys != workloads::System::kNoUvm ||
                    net.allocBytes(batch) <= cfg.gpu_memory)
                    cells.emplace_back(sys, p);
            }
        }
    }
    return cells;
}

/** Every RunResult field of @p on equals that of @p off. */
inline void
expectSameRun(const workloads::RunResult &on,
              const workloads::RunResult &off, const std::string &label)
{
    EXPECT_EQ(on.system, off.system) << label;
    EXPECT_EQ(on.ovsp_ratio, off.ovsp_ratio) << label;
    EXPECT_EQ(on.elapsed, off.elapsed) << label;
    std::size_t i = 0;
    for (std::uint64_t workloads::RunResult::*c : workloads::kRunCounters)
        EXPECT_EQ(on.*c, off.*c) << label << ", kRunCounters[" << i++
                                 << "]";
}

/** Every TrainResult field of @p on equals that of @p off. */
inline void
expectSameTraining(const workloads::dl::TrainResult &on,
                   const workloads::dl::TrainResult &off,
                   const std::string &label)
{
    expectSameRun(on, off, label + ", whole run");
    expectSameRun(on.measured, off.measured, label + ", measured");
    EXPECT_EQ(on.batch_size, off.batch_size) << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(on.throughput),
              std::bit_cast<std::uint64_t>(off.throughput))
        << label;
}

/**
 * Train each of @p cells on @p link under @p cfg with the
 * fast-forward on and off:
 * every field must match, the runs without it simulate every batch,
 * and the UVM runs with it at most @p max_simulated batches, with
 * measured required + redundant bytes equal to the measured traffic.
 * Returns the results with the fast-forward on, in cell order.
 */
inline std::vector<workloads::dl::TrainResult>
expectFastForwardExact(const std::vector<DlCell> &cells,
                       const interconnect::LinkSpec &link,
                       const uvm::UvmConfig &cfg =
                           uvm::UvmConfig::rtx3080ti(),
                       int max_simulated = 3)
{
    EXPECT_FALSE(cells.empty());
    std::vector<workloads::dl::TrainResult> results;
    for (const auto &[sys, params] : cells) {
        workloads::dl::TrainParams p = params;
        const std::string label = p.net.name + " batch " +
                                  std::to_string(p.batch_size) + " " +
                                  workloads::toString(sys) + " on " +
                                  link.name;
        p.fast_forward = false;
        workloads::dl::TrainResult off =
            workloads::dl::runTraining(sys, p, link, cfg);
        p.fast_forward = true;
        workloads::dl::TrainResult on =
            workloads::dl::runTraining(sys, p, link, cfg);
        expectSameTraining(on, off, label);
        EXPECT_EQ(off.batches_simulated,
                  p.warmup_batches + p.measured_batches)
            << label;
        if (workloads::usesUvm(sys)) {
            EXPECT_LE(on.batches_simulated, max_simulated) << label;
            EXPECT_EQ(on.measured.required + on.measured.redundant,
                      on.measured.trafficTotal())
                << label;
        }
        results.push_back(on);
    }
    return results;
}

}  // namespace uvmd::test

#endif  // UVMD_TESTS_DL_FAST_FORWARD_HPP
