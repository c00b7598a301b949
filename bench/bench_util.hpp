/**
 * @file
 * Shared helpers for the table/figure regeneration harnesses.
 *
 * Every bench prints the measured table next to the paper's reported
 * values.  Absolute magnitudes are not expected to match (the
 * substrate is a simulator, not the authors' testbed); the shapes —
 * who wins, by what rough factor, where the crossovers sit — are the
 * reproduction target (see EXPERIMENTS.md).
 */

#ifndef UVMD_BENCH_BENCH_UTIL_HPP
#define UVMD_BENCH_BENCH_UTIL_HPP

#include <cstdio>
#include <string>
#include <vector>

#include "sim/logging.hpp"
#include "trace/report.hpp"
#include "workloads/common.hpp"

namespace uvmd::bench {

/**
 * Run a harness body as main() and return its exit status.  A
 * sim::FatalError (say, a CSV that cannot be written) prints
 * "error: <what>" on stderr and returns 1 instead of escaping main()
 * and aborting the process.
 */
inline int
harnessMain(int argc, char **argv, int (*body)(int, char **))
{
    try {
        return body(argc, argv);
    } catch (const sim::FatalError &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

inline void
banner(const std::string &what)
{
    std::printf("\n############################################\n"
                "# %s\n"
                "############################################\n",
                what.c_str());
}

/** The oversubscription ratios of the micro-benchmark tables. */
inline const std::vector<double> &
ovspRatios()
{
    static const std::vector<double> ratios{0.0, 2.0, 3.0, 4.0};
    return ratios;
}

inline std::string
ratioLabel(double ratio)
{
    if (ratio <= 1.0)
        return "<100%";
    return std::to_string(static_cast<int>(ratio * 100)) + "%";
}

}  // namespace uvmd::bench

#endif  // UVMD_BENCH_BENCH_UTIL_HPP
