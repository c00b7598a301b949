/**
 * @file
 * Regenerates Tables 5 and 6: Radix-sort normalized runtime
 * (PCIe-3/PCIe-4) and PCIe traffic, plus the Section 7.3 text result:
 * the ~3.9x slowdown of UvmDiscard when the re-arming prefetches are
 * omitted (pure GPU fault storm re-establishing eagerly destroyed
 * mappings).
 */

#include "paper_tables.hpp"
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

    paperTables(
        jobs,
        {.runtime_title =
             "Table 5: normalized runtime of Radix-sort (PCIe-3/4)",
         .runtime_csv = "table5_radix_runtime.csv",
         .paper_runtime = {{"1/1", "1/1", "1/1", "1/1"},
                           {"1.21/1.28", "0.87/0.83", "0.95/0.93",
                            "0.97/0.97"},
                           {"1.00/1.02", "0.87/0.83", "0.95/0.92",
                            "0.97/0.99"}},
         .traffic_title = "Table 6: PCIe traffic (GB) of Radix-sort",
         .traffic_csv = "table6_radix_traffic.csv",
         .paper_traffic = {{"5.00", "300.80", "345.40", "356.85"},
                           {"5.00", "244.93", "315.50", "339.76"},
                           {"5.00", "244.92", "315.52", "339.76"}}},
        [](System sys, double ratio, interconnect::LinkSpec link) {
            RadixParams p;
            p.ovsp_ratio = ratio;
            return runRadixSort(sys, p, link);
        });

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
