/**
 * @file
 * Regenerates Tables 5 and 6: Radix-sort normalized runtime
 * (PCIe-3/PCIe-4) and PCIe traffic, plus the Section 7.3 text result:
 * the ~3.9x slowdown of UvmDiscard when the re-arming prefetches are
 * omitted (pure GPU fault storm re-establishing eagerly destroyed
 * mappings).
 */

#include <map>

#include "bench_util.hpp"
#include "sweep_runner.hpp"
#include "workloads/radix_sort.hpp"

/** The harness body; main() turns a sim::FatalError into exit 1. */
static int
runHarness(int argc, char **argv)
{
    using namespace uvmd;
    using namespace uvmd::bench;
    using namespace uvmd::workloads;

    int jobs = parseSweepArgs(argc, argv);
    banner("Tables 5+6: Radix-sort normalized runtime and traffic");

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
            RadixParams p;
            p.ovsp_ratio = c.ratio;
            return runRadixSort(c.sys, p, links[c.li]);
        },
        [&](std::size_t i, RunResult &&r) {
            const Config &c = grid[i];
            results[c.sys][c.ratio][c.li] = std::move(r);
        });

    trace::Table t5(
        "Table 5: normalized runtime of Radix-sort (PCIe-3/4)");
    t5.header({"Ovsp. rate", "<100%", "200%", "300%", "400%"});
    for (System sys : systems) {
        std::vector<std::string> row{toString(sys)};
        for (double ratio : ovspRatios()) {
            auto &base = results[System::kUvmOpt][ratio];
            auto &r = results[sys][ratio];
            row.push_back(trace::fmtPair(
                static_cast<double>(r[0].elapsed) / base[0].elapsed,
                static_cast<double>(r[1].elapsed) / base[1].elapsed));
        }
        t5.row(row);
    }
    t5.print();
    t5.writeCsv("table5_radix_runtime.csv");

    trace::Table p5("Paper Table 5 (reference)");
    p5.header({"Ovsp. rate", "<100%", "200%", "300%", "400%"});
    p5.row({"UVM-opt", "1/1", "1/1", "1/1", "1/1"});
    p5.row({"UvmDiscard", "1.21/1.28", "0.87/0.83", "0.95/0.93",
            "0.97/0.97"});
    p5.row({"UvmDiscardLazy", "1.00/1.02", "0.87/0.83", "0.95/0.92",
            "0.97/0.99"});
    p5.print();

    trace::Table t6("Table 6: PCIe traffic (GB) of Radix-sort");
    t6.header({"Ovsp. rate", "<100%", "200%", "300%", "400%"});
    for (System sys : systems) {
        std::vector<std::string> row{toString(sys)};
        for (double ratio : ovspRatios())
            row.push_back(trace::fmt(results[sys][ratio][1].trafficGb()));
        t6.row(row);
    }
    t6.print();
    t6.writeCsv("table6_radix_traffic.csv");

    trace::Table p6("Paper Table 6 (reference)");
    p6.header({"Ovsp. rate", "<100%", "200%", "300%", "400%"});
    p6.row({"UVM-opt", "5.00", "300.80", "345.40", "356.85"});
    p6.row({"UvmDiscard", "5.00", "244.93", "315.50", "339.76"});
    p6.row({"UvmDiscardLazy", "5.00", "244.92", "315.52", "339.76"});
    p6.print();

    // Section 7.3 text: UvmDiscard without prefetch operations at
    // <100% oversubscription (paper: up to 3.9x slowdown).
    RadixParams noprefetch;
    noprefetch.use_prefetch = false;
    RunResult base =
        runRadixSort(System::kUvmOpt, noprefetch,
                     interconnect::LinkSpec::pcie3());
    RunResult storm =
        runRadixSort(System::kUvmDiscard, noprefetch,
                     interconnect::LinkSpec::pcie3());
    std::printf("\nSection 7.3 text: UvmDiscard WITHOUT prefetch at "
                "<100%%:\n  measured slowdown %.2fx  (paper: up to "
                "3.9x)\n",
                static_cast<double>(storm.elapsed) / base.elapsed);
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
