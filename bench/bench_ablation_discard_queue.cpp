/**
 * @file
 * Ablation of the Section 5.5 design choice: the dedicated discarded
 * FIFO in the eviction order (free -> unused -> discarded ->
 * used-LRU).  With the queue disabled, discarded chunks stay on the
 * used LRU: their reclamation still skips the transfer, but the
 * eviction process no longer *prioritizes* them, so live data gets
 * evicted while dead data occupies memory.
 */

#include "bench_util.hpp"
#include "sweep_runner.hpp"
#include "workloads/fir.hpp"
#include "workloads/hash_join.hpp"

/** The harness body; main() turns a sim::FatalError into exit 1. */
static int
runHarness(int argc, char **argv)
{
    using namespace uvmd;
    using namespace uvmd::bench;
    using namespace uvmd::workloads;

    int jobs = parseSweepArgs(argc, argv);
    banner("Ablation: discarded page queue (Section 5.5)");

    trace::Table table("UvmDiscard with/without the discarded queue "
                       "(PCIe-4, 200% oversubscription)");
    table.header({"Workload", "Queue", "Runtime (ms)", "Traffic (GB)",
                  "Used-LRU evictions", "Discard-queue evictions"});

    struct Config {
        bool queue;
        bool hashjoin;
    };
    const std::vector<Config> grid = {
        {true, false}, {true, true}, {false, false}, {false, true}};
    runIndexedSweep(
        jobs, grid.size(),
        [&](std::size_t i) {
            const Config &c = grid[i];
            uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
            cfg.discard_queue_enabled = c.queue;
            if (c.hashjoin) {
                HashJoinParams hj;
                hj.ovsp_ratio = 2.0;
                return runHashJoin(System::kUvmDiscard, hj,
                                   interconnect::LinkSpec::pcie4(),
                                   cfg);
            }
            FirParams fir;
            fir.ovsp_ratio = 2.0;
            return runFir(System::kUvmDiscard, fir,
                          interconnect::LinkSpec::pcie4(), cfg);
        },
        [&](std::size_t i, RunResult &&r) {
            const Config &c = grid[i];
            table.row({c.hashjoin ? "Hash-join" : "FIR",
                       c.queue ? "on" : "off",
                       trace::fmt(sim::toMilliseconds(r.elapsed), 1),
                       trace::fmt(r.trafficGb()),
                       std::to_string(r.evictions_used),
                       std::to_string(r.evictions_discarded)});
        });
    table.print();
    table.writeCsv("ablation_discard_queue.csv");

    std::printf("\nExpected: with the queue off, used-LRU evictions "
                "replace discarded-queue reclaims; evicting a block "
                "still skips transfers for its discarded pages, but "
                "live data is evicted earlier, raising traffic and "
                "runtime.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
