/**
 * @file
 * Regenerates Figure 7: deep-learning training throughput on PCIe-3
 * (same sweep as Figure 6 on the slower link — the oversubscription
 * penalty and the discard benefit are both larger).
 */

#include "dl_sweep.hpp"

/** The harness body; main() turns a sim::FatalError into exit 1. */
static int
runHarness(int argc, char **argv)
{
    using namespace uvmd;
    using namespace uvmd::bench;

    int jobs = parseSweepArgs(argc, argv);
    throughputFigure(7, "PCIe-3",
                     dlSweep(interconnect::LinkSpec::pcie3(), jobs));
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
