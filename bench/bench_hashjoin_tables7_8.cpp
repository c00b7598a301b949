/**
 * @file
 * Regenerates Tables 7 and 8: hash-join normalized runtime
 * (PCIe-3/PCIe-4) and PCIe traffic across oversubscription ratios —
 * the paper's headline 4.17x speedup at 200% by eliminating 85.8% of
 * memory transfers.
 */

#include <map>

#include "bench_util.hpp"
#include "sweep_runner.hpp"
#include "workloads/hash_join.hpp"

/** The harness body; main() turns a sim::FatalError into exit 1. */
static int
runHarness(int argc, char **argv)
{
    using namespace uvmd;
    using namespace uvmd::bench;
    using namespace uvmd::workloads;

    int jobs = parseSweepArgs(argc, argv);
    banner("Tables 7+8: Hash-join normalized runtime and traffic");

    const System systems[] = {System::kUvmOpt, System::kUvmDiscard,
                              System::kUvmDiscardLazy};
    const interconnect::LinkSpec links[] = {
        interconnect::LinkSpec::pcie3(),
        interconnect::LinkSpec::pcie4()};

    struct Config {
        int li;
        double ratio;
        System sys;
    };
    std::vector<Config> grid;
    for (int li = 0; li < 2; ++li) {
        for (double ratio : ovspRatios()) {
            for (System sys : systems)
                grid.push_back(Config{li, ratio, sys});
        }
    }

    std::map<System, std::map<double, RunResult[2]>> results;
    runIndexedSweep(
        jobs, grid.size(),
        [&](std::size_t i) {
            const Config &c = grid[i];
            HashJoinParams p;
            p.ovsp_ratio = c.ratio;
            return runHashJoin(c.sys, p, links[c.li]);
        },
        [&](std::size_t i, RunResult &&r) {
            const Config &c = grid[i];
            results[c.sys][c.ratio][c.li] = std::move(r);
        });

    trace::Table t7(
        "Table 7: normalized runtime of Hash-join (PCIe-3/4)");
    t7.header({"Ovsp. rate", "<100%", "200%", "300%", "400%"});
    for (System sys : systems) {
        std::vector<std::string> row{toString(sys)};
        for (double ratio : ovspRatios()) {
            auto &base = results[System::kUvmOpt][ratio];
            auto &r = results[sys][ratio];
            row.push_back(trace::fmtPair(
                static_cast<double>(r[0].elapsed) / base[0].elapsed,
                static_cast<double>(r[1].elapsed) / base[1].elapsed));
        }
        t7.row(row);
    }
    t7.print();
    t7.writeCsv("table7_hashjoin_runtime.csv");

    trace::Table p7("Paper Table 7 (reference)");
    p7.header({"Ovsp. rate", "<100%", "200%", "300%", "400%"});
    p7.row({"UVM-opt", "1/1", "1/1", "1/1", "1/1"});
    p7.row({"UvmDiscard", "1.05/1.09", "0.24/0.31", "0.51/0.54",
            "0.86/0.89"});
    p7.row({"UvmDiscardLazy", "1.02/1.04", "0.24/0.31", "0.51/0.54",
            "0.86/0.88"});
    p7.print();

    trace::Table t8("Table 8: PCIe traffic (GB) of Hash-join");
    t8.header({"Ovsp. rate", "<100%", "200%", "300%", "400%"});
    for (System sys : systems) {
        std::vector<std::string> row{toString(sys)};
        for (double ratio : ovspRatios())
            row.push_back(trace::fmt(results[sys][ratio][1].trafficGb()));
        t8.row(row);
    }
    t8.print();
    t8.writeCsv("table8_hashjoin_traffic.csv");

    trace::Table p8("Paper Table 8 (reference)");
    p8.header({"Ovsp. rate", "<100%", "200%", "300%", "400%"});
    p8.row({"UVM-opt", "2.98", "34.62", "36.42", "58.23"});
    p8.row({"UvmDiscard", "2.98", "4.89", "16.19", "46.61"});
    p8.row({"UvmDiscardLazy", "2.98", "4.89", "16.19", "46.44"});
    p8.print();

    // Headline check: speedup and traffic elimination at 200%.
    const auto &base = results[System::kUvmOpt][2.0][0];
    const auto &disc = results[System::kUvmDiscard][2.0][0];
    std::printf("\nHeadline at 200%% (PCIe-3): speedup %.2fx "
                "(paper 4.17x), transfers eliminated %.1f%% "
                "(paper 85.8%%)\n",
                static_cast<double>(base.elapsed) / disc.elapsed,
                100.0 * (1.0 - static_cast<double>(
                                   disc.trafficTotal()) /
                                   base.trafficTotal()));
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
