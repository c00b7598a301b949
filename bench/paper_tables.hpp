/**
 * @file
 * Shared body of the micro-benchmark table harnesses (Tables 3-8).
 *
 * The paper measures FIR, Radix-sort and Hash-join the same way
 * (Sections 7.2-7.4): UVM-opt, UvmDiscard and UvmDiscardLazy at every
 * oversubscription ratio on PCIe-3 and PCIe-4, reported as runtime
 * normalized to UVM-opt (a PCIe-3/PCIe-4 pair per cell) and as PCIe-4
 * traffic.  Each harness supplies its run function, table titles, CSV
 * names and the paper's cells; `paperTables` does the rest.
 */

#ifndef UVMD_BENCH_PAPER_TABLES_HPP
#define UVMD_BENCH_PAPER_TABLES_HPP

#include <array>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sweep_runner.hpp"

namespace uvmd::bench {

/** The paper's cells: one row per system, one cell per ratio. */
using PaperRows = std::vector<std::vector<std::string>>;

/** One paper table pair: the normalized runtime and the traffic.  A
 *  title reads "Table N: ..."; its reference is "Paper Table N". */
struct PaperTableSpec {
    std::string runtime_title;
    std::string runtime_csv;
    PaperRows paper_runtime;
    std::string traffic_title;
    std::string traffic_csv;
    PaperRows paper_traffic;
};

/** results[system][ratio][link]: link 0 is PCIe-3, link 1 PCIe-4. */
using TableResults =
    std::map<workloads::System,
             std::map<double, std::array<workloads::RunResult, 2>>>;

/**
 * Run @p run(system, ratio, link) over 2 links x ovspRatios() x the
 * three UVM systems on @p jobs threads, then print and write the two
 * measured tables, each followed by its paper reference, and return
 * every result for the harness's own trailing text.
 */
template <typename Run>
TableResults
paperTables(int jobs, const PaperTableSpec &spec, Run &&run)
{
    using workloads::System;
    static constexpr System kSystems[] = {
        System::kUvmOpt, System::kUvmDiscard, System::kUvmDiscardLazy};
    const interconnect::LinkSpec links[] = {
        interconnect::LinkSpec::pcie3(),
        interconnect::LinkSpec::pcie4()};
    const std::vector<double> &ratios = ovspRatios();

    struct Config {
        int li;
        double ratio;
        System sys;
    };
    std::vector<Config> grid;
    for (int li = 0; li < 2; ++li) {
        for (double ratio : ratios) {
            for (System sys : kSystems)
                grid.push_back(Config{li, ratio, sys});
        }
    }

    TableResults results;
    runIndexedSweep(
        jobs, grid.size(),
        [&](std::size_t i) {
            const Config &c = grid[i];
            return run(c.sys, c.ratio, links[c.li]);
        },
        [&](std::size_t i, workloads::RunResult &&r) {
            const Config &c = grid[i];
            results[c.sys][c.ratio][c.li] = std::move(r);
        });

    std::vector<std::string> header{"Ovsp. rate"};
    for (double ratio : ratios)
        header.push_back(ratioLabel(ratio));
    auto tables = [&](const std::string &title, const std::string &csv,
                      const PaperRows &paper, auto &&cell) {
        std::string ref_title = "Paper ";
        ref_title.append(title, 0, title.find(':'));
        ref_title += " (reference)";
        trace::Table t(title), ref(ref_title);
        t.header(header);
        ref.header(header);
        for (std::size_t s = 0; s < 3; ++s) {
            std::vector<std::string> row{toString(kSystems[s])};
            std::vector<std::string> ref_row = row;
            for (double ratio : ratios)
                row.push_back(cell(results[kSystems[s]][ratio],
                                   results[System::kUvmOpt][ratio]));
            ref_row.insert(ref_row.end(), paper[s].begin(),
                           paper[s].end());
            t.row(row);
            ref.row(ref_row);
        }
        t.print();
        t.writeCsv(csv);
        ref.print();
    };

    tables(spec.runtime_title, spec.runtime_csv, spec.paper_runtime,
           [](const auto &r, const auto &base) {
               return trace::fmtPair(
                   static_cast<double>(r[0].elapsed) / base[0].elapsed,
                   static_cast<double>(r[1].elapsed) / base[1].elapsed);
           });
    tables(spec.traffic_title, spec.traffic_csv, spec.paper_traffic,
           [](const auto &r, const auto &) {
               return trace::fmt(r[1].trafficGb());
           });
    return results;
}

}  // namespace uvmd::bench

#endif  // UVMD_BENCH_PAPER_TABLES_HPP
