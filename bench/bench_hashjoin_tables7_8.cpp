/**
 * @file
 * Regenerates Tables 7 and 8: hash-join normalized runtime
 * (PCIe-3/PCIe-4) and PCIe traffic across oversubscription ratios —
 * the paper's headline 4.17x speedup at 200% by eliminating 85.8% of
 * memory transfers.
 */

#include "paper_tables.hpp"
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

    TableResults results = paperTables(
        jobs,
        {.runtime_title =
             "Table 7: normalized runtime of Hash-join (PCIe-3/4)",
         .runtime_csv = "table7_hashjoin_runtime.csv",
         .paper_runtime = {{"1/1", "1/1", "1/1", "1/1"},
                           {"1.05/1.09", "0.24/0.31", "0.51/0.54",
                            "0.86/0.89"},
                           {"1.02/1.04", "0.24/0.31", "0.51/0.54",
                            "0.86/0.88"}},
         .traffic_title = "Table 8: PCIe traffic (GB) of Hash-join",
         .traffic_csv = "table8_hashjoin_traffic.csv",
         .paper_traffic = {{"2.98", "34.62", "36.42", "58.23"},
                           {"2.98", "4.89", "16.19", "46.61"},
                           {"2.98", "4.89", "16.19", "46.44"}}},
        [](System sys, double ratio, interconnect::LinkSpec link) {
            HashJoinParams p;
            p.ovsp_ratio = ratio;
            return runHashJoin(sys, p, link);
        });

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
