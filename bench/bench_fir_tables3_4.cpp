/**
 * @file
 * Regenerates Tables 3 and 4: FIR normalized runtime (PCIe-3/PCIe-4)
 * and PCIe traffic across oversubscription ratios.
 */

#include <map>

#include "bench_util.hpp"
#include "sweep_runner.hpp"
#include "workloads/fir.hpp"

/** The harness body; main() turns a sim::FatalError into exit 1. */
static int
runHarness(int argc, char **argv)
{
    using namespace uvmd;
    using namespace uvmd::bench;
    using namespace uvmd::workloads;

    int jobs = parseSweepArgs(argc, argv);
    banner("Tables 3+4: FIR normalized runtime and PCIe traffic");

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

    // results[system][ratio][link_index]
    std::map<System, std::map<double, RunResult[2]>> results;
    runIndexedSweep(
        jobs, grid.size(),
        [&](std::size_t i) {
            const Config &c = grid[i];
            FirParams p;
            p.ovsp_ratio = c.ratio;
            return runFir(c.sys, p, links[c.li]);
        },
        [&](std::size_t i, RunResult &&r) {
            const Config &c = grid[i];
            results[c.sys][c.ratio][c.li] = std::move(r);
        });

    trace::Table t3("Table 3: normalized runtime of FIR (PCIe 3/4)");
    t3.header({"Ovsp. rate", "<100%", "200%", "300%", "400%"});
    for (System sys : systems) {
        std::vector<std::string> row{toString(sys)};
        for (double ratio : ovspRatios()) {
            auto &base = results[System::kUvmOpt][ratio];
            auto &r = results[sys][ratio];
            row.push_back(trace::fmtPair(
                static_cast<double>(r[0].elapsed) / base[0].elapsed,
                static_cast<double>(r[1].elapsed) / base[1].elapsed));
        }
        t3.row(row);
    }
    t3.print();
    t3.writeCsv("table3_fir_runtime.csv");

    trace::Table p3("Paper Table 3 (reference)");
    p3.header({"Ovsp. rate", "<100%", "200%", "300%", "400%"});
    p3.row({"UVM-opt", "1/1", "1/1", "1/1", "1/1"});
    p3.row({"UvmDiscard", "1/1.01", "0.51/0.52", "0.62/0.65",
            "0.71/0.71"});
    p3.row({"UvmDiscardLazy", "1/1.00", "0.52/0.52", "0.62/0.66",
            "0.72/0.71"});
    p3.print();

    trace::Table t4("Table 4: PCIe traffic (GB) of FIR");
    t4.header({"Ovsp. rate", "<100%", "200%", "300%", "400%"});
    for (System sys : systems) {
        std::vector<std::string> row{toString(sys)};
        for (double ratio : ovspRatios())
            row.push_back(trace::fmt(results[sys][ratio][1].trafficGb()));
        t4.row(row);
    }
    t4.print();
    t4.writeCsv("table4_fir_traffic.csv");

    trace::Table p4("Paper Table 4 (reference)");
    p4.header({"Ovsp. rate", "<100%", "200%", "300%", "400%"});
    p4.row({"UVM-opt", "5.66", "11.44", "13.38", "14.34"});
    p4.row({"UvmDiscard", "5.66", "5.88", "7.81", "8.78"});
    p4.row({"UvmDiscardLazy", "5.66", "5.88", "7.81", "8.78"});
    p4.print();

    std::printf("\nRMTs eliminated by the discard directive "
                "(skipped transfers), GB:\n");
    for (double ratio : ovspRatios()) {
        std::printf("  %-6s %.2f\n", ratioLabel(ratio).c_str(),
                    results[System::kUvmDiscard][ratio][1]
                            .skipped_by_discard /
                        1e9);
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
