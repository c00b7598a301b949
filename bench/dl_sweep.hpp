/**
 * @file
 * Shared batch grids and sweep driver for the deep-learning figures
 * (Figures 5, 6 and 7).
 */

#ifndef UVMD_BENCH_DL_SWEEP_HPP
#define UVMD_BENCH_DL_SWEEP_HPP

#include <vector>

#include "bench_util.hpp"
#include "sweep_runner.hpp"
#include "workloads/dl/trainer.hpp"

namespace uvmd::bench {

/** Per-network batch grids spanning fits-in-memory through heavy
 *  oversubscription, anchored on the Section 7.5 capacity points. */
inline std::vector<int>
batchGrid(const workloads::dl::NetSpec &net)
{
    if (net.name == "VGG-16")
        return {40, 60, 75, 100, 125, 150};
    if (net.name == "Darknet-19")
        return {90, 135, 171, 240, 300, 360};
    if (net.name == "ResNet-53")
        return {28, 42, 56, 90, 120, 150};
    return {75, 110, 150, 200, 250, 300};  // RNN
}

/**
 * Run every (network, batch, system) combination on @p link and hand
 * each result to @p consume, always in grid order (network-major, as
 * the serial loops always ran).  No-UVM is skipped (as in the paper's
 * figures) once the allocation no longer fits.  With @p jobs > 1 the
 * independent training runs execute on that many threads; consume
 * still sees them serially in grid order, so figure output is
 * identical.
 */
template <typename Consume>
void
dlSweep(const std::vector<workloads::System> &systems,
        interconnect::LinkSpec link, int jobs, Consume &&consume)
{
    using workloads::System;
    namespace dl = workloads::dl;

    uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    const std::vector<dl::NetSpec> nets = dl::NetSpec::all();

    struct Config {
        std::size_t net;
        int batch;
        System sys;
    };
    std::vector<Config> grid;
    for (std::size_t n = 0; n < nets.size(); ++n) {
        for (int batch : batchGrid(nets[n])) {
            for (System sys : systems) {
                if (sys == System::kNoUvm &&
                    nets[n].allocBytes(batch) > cfg.gpu_memory) {
                    continue;
                }
                grid.push_back(Config{n, batch, sys});
            }
        }
    }

    runIndexedSweep(
        jobs, grid.size(),
        [&](std::size_t i) {
            const Config &c = grid[i];
            dl::TrainParams p;
            p.net = nets[c.net];
            p.batch_size = c.batch;
            return dl::runTraining(c.sys, p, link, cfg);
        },
        [&](std::size_t i, dl::TrainResult &&r) {
            const Config &c = grid[i];
            consume(nets[c.net], c.batch, c.sys, r);
        });
}

}  // namespace uvmd::bench

#endif  // UVMD_BENCH_DL_SWEEP_HPP
