/**
 * @file
 * Shared batch grids, sweep driver and throughput-figure writer for
 * the deep-learning figures (Figures 5, 6 and 7).
 */

#ifndef UVMD_BENCH_DL_SWEEP_HPP
#define UVMD_BENCH_DL_SWEEP_HPP

#include <map>
#include <string>
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

/** The systems of the DL figures, in column order. */
inline constexpr workloads::System kDlSystems[] = {
    workloads::System::kNoUvm, workloads::System::kUvmOpt,
    workloads::System::kUvmDiscard, workloads::System::kUvmDiscardLazy};

/** results[net][batch][system]; DlRuns is one (net, batch) cell. */
using DlRuns = std::map<workloads::System, workloads::dl::TrainResult>;
using DlResults = std::map<std::string, std::map<int, DlRuns>>;

/**
 * Train every (network, batch, system) combination of kDlSystems on
 * @p link.  No-UVM is skipped (as in the paper's figures) once the
 * allocation no longer fits.  With @p jobs > 1 the independent
 * training runs execute on that many threads; the results do not
 * depend on @p jobs.
 */
inline DlResults
dlSweep(interconnect::LinkSpec link, int jobs)
{
    using workloads::System;
    namespace dl = workloads::dl;

    uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    std::vector<std::pair<System, dl::TrainParams>> grid;
    for (const dl::NetSpec &net : dl::NetSpec::all()) {
        for (int batch : batchGrid(net)) {
            dl::TrainParams p;
            p.net = net;
            p.batch_size = batch;
            for (System sys : kDlSystems) {
                if (sys != System::kNoUvm ||
                    net.allocBytes(batch) <= cfg.gpu_memory)
                    grid.emplace_back(sys, p);
            }
        }
    }

    DlResults results;
    runIndexedSweep(
        jobs, grid.size(),
        [&](std::size_t i) {
            return dl::runTraining(grid[i].first, grid[i].second, link,
                                   cfg);
        },
        [&](std::size_t i, dl::TrainResult &&r) {
            const auto &[sys, p] = grid[i];
            results[p.net.name][p.batch_size][sys] = std::move(r);
        });
    return results;
}

/**
 * Print Figure @p figure of a dlSweep and write its CSVs: the banner
 * "Figure N: @p what", then per network the table "Figure N (net):
 * @p caption" under @p header, written to figN_@p stem_net.csv.  Each
 * row is the batch, then what @p cells(row, net, batch, runs) appends.
 */
template <typename Cells>
void
dlFigure(int figure, const std::string &what, const std::string &caption,
         const std::string &stem, const std::vector<std::string> &header,
         const DlResults &results, Cells &&cells)
{
    const std::string fig = std::to_string(figure);
    banner("Figure " + fig + ": " + what);
    for (const auto &net : workloads::dl::NetSpec::all()) {
        trace::Table t("Figure " + fig + " (" + net.name + "): " +
                       caption);
        t.header(header);
        for (int batch : batchGrid(net)) {
            std::vector<std::string> row{std::to_string(batch)};
            cells(row, net, batch, results.at(net.name).at(batch));
            t.row(row);
        }
        t.print();
        t.writeCsv("fig" + fig + "_" + stem + "_" + net.name + ".csv");
    }
}

/** Figures 6 and 7: the training throughput of a dlSweep on
 *  @p link_name, "-" where No-UVM did not run. */
inline void
throughputFigure(int figure, const std::string &link_name,
                 const DlResults &results)
{
    std::vector<std::string> header{"Batch"};
    for (workloads::System sys : kDlSystems)
        header.push_back(toString(sys));
    dlFigure(figure, "DL training throughput (img/sec), " + link_name,
             "throughput img/sec, " + link_name, "throughput", header,
             results, [](auto &row, const auto &, int, const DlRuns &runs) {
                 for (workloads::System sys : kDlSystems) {
                     auto it = runs.find(sys);
                     row.push_back(it == runs.end() ? "-"
                                   : trace::fmt(it->second.throughput, 1));
                 }
             });
}

}  // namespace uvmd::bench

#endif  // UVMD_BENCH_DL_SWEEP_HPP
