/**
 * @file
 * Regenerates Tables 3 and 4: FIR normalized runtime (PCIe-3/PCIe-4)
 * and PCIe traffic across oversubscription ratios.
 */

#include "paper_tables.hpp"
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

    TableResults results = paperTables(
        jobs,
        {.runtime_title = "Table 3: normalized runtime of FIR (PCIe 3/4)",
         .runtime_csv = "table3_fir_runtime.csv",
         .paper_runtime = {{"1/1", "1/1", "1/1", "1/1"},
                           {"1/1.01", "0.51/0.52", "0.62/0.65", "0.71/0.71"},
                           {"1/1.00", "0.52/0.52", "0.62/0.66", "0.72/0.71"}},
         .traffic_title = "Table 4: PCIe traffic (GB) of FIR",
         .traffic_csv = "table4_fir_traffic.csv",
         .paper_traffic = {{"5.66", "11.44", "13.38", "14.34"},
                           {"5.66", "5.88", "7.81", "8.78"},
                           {"5.66", "5.88", "7.81", "8.78"}}},
        [](System sys, double ratio, interconnect::LinkSpec link) {
            FirParams p;
            p.ovsp_ratio = ratio;
            return runFir(sys, p, link);
        });

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
