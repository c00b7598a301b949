/**
 * @file
 * Extension study for the paper's Section 2.3/3.2 discussion of
 * cache-coherent interconnects, in two parts:
 *
 *  (a) REUSE CROSSOVER — a read-only buffer accessed K times, either
 *      migrated once (UVM) or accessed remotely in place: remote wins
 *      at one touch (no round trip), migration wins as reuse grows.
 *      This is why coherent systems still migrate for locality.
 *
 *  (b) DEAD DATA UNDER PRESSURE — an iteration-private scratch buffer
 *      that dies every iteration, under memory pressure.  Three
 *      strategies: migrate (UVM-opt: the dead data is swapped out and
 *      back — pure RMTs), remote (writes stream host-ward over the
 *      link every iteration), and migrate+discard (pages reclaimed in
 *      place, rewrites zero-filled).  Discard beats both: a coherent
 *      link does NOT obviate the directive (Section 3.2).
 */

#include "bench_util.hpp"
#include "cuda/runtime.hpp"
#include "sweep_runner.hpp"

namespace {

using namespace uvmd;

uvm::UvmConfig
benchCfg()
{
    uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    cfg.gpu_memory = 96 * mem::kBigPageSize;  // 192 MiB
    return cfg;
}

struct Outcome {
    sim::SimDuration elapsed;
    sim::Bytes traffic;
};

/** Part (a): K read passes over one 64 MiB buffer. */
Outcome
runReuse(bool remote, int reuses, interconnect::LinkSpec link)
{
    cuda::Runtime rt(benchCfg(), link);
    const sim::Bytes size = 32 * mem::kBigPageSize;
    mem::VirtAddr buf = rt.mallocManaged(size, "ra.buf");
    rt.hostTouch(buf, size, uvm::AccessKind::kWrite);
    if (remote) {
        rt.memAdvise(buf, size,
                     uvm::MemAdvise::kSetPreferredLocationCpu);
    }

    sim::SimTime t0 = rt.now();
    for (int i = 0; i < reuses; ++i) {
        if (!remote)
            rt.prefetchAsync(buf, size, uvm::ProcessorId::gpu(0));
        cuda::KernelDesc k;
        k.name = "ra.read" + std::to_string(i);
        k.accesses = {{buf, size, uvm::AccessKind::kRead}};
        k.compute = sim::microseconds(300);
        rt.launch(k);
    }
    rt.synchronize();
    return {rt.now() - t0, rt.driver().totalTrafficBytes()};
}

enum class DeadPolicy { kMigrate, kRemote, kMigrateDiscard };

/** Part (b): the Figure-2 pattern on a coherent link.  A 64 MiB
 *  scratch buffer is produced and consumed each iteration, then dies
 *  while a 72 MiB working phase evicts it (the occupier leaves
 *  128 MiB).  migrate: the dead scratch is swapped out and re-fetched
 *  (pure RMTs).  remote: scratch lives on the host; produce/consume
 *  stream it over the link every iteration.  migrate+discard:
 *  reclaimed in place, re-armed with zero-fill. */
Outcome
runDeadData(DeadPolicy policy, interconnect::LinkSpec link)
{
    cuda::Runtime rt(benchCfg(), link);
    rt.driver().reserveGpuMemory(0, 32 * mem::kBigPageSize);

    const sim::Bytes work_size = 8 * mem::kBigPageSize;
    const sim::Bytes scratch_size = 32 * mem::kBigPageSize;
    const sim::Bytes other_size = 36 * mem::kBigPageSize;
    mem::VirtAddr work = rt.mallocManaged(work_size, "ra.work");
    mem::VirtAddr scratch =
        rt.mallocManaged(scratch_size, "ra.scratch");
    mem::VirtAddr other = rt.mallocManaged(other_size, "ra.other");
    rt.hostTouch(work, work_size, uvm::AccessKind::kWrite);
    rt.prefetchAsync(work, work_size, uvm::ProcessorId::gpu(0));
    if (policy == DeadPolicy::kRemote) {
        rt.memAdvise(scratch, scratch_size,
                     uvm::MemAdvise::kSetPreferredLocationCpu);
        // Remote pages must exist on the host before the GPU can
        // write them in place.
        rt.hostTouch(scratch, scratch_size, uvm::AccessKind::kWrite);
    }
    rt.synchronize();

    sim::SimTime t0 = rt.now();
    for (int i = 0; i < 12; ++i) {
        // Produce and consume the iteration-private scratch data.
        if (policy != DeadPolicy::kRemote) {
            rt.prefetchAsync(scratch, scratch_size,
                             uvm::ProcessorId::gpu(0));
        }
        cuda::KernelDesc produce;
        produce.name = "ra.produce" + std::to_string(i);
        produce.accesses = {{work, work_size, uvm::AccessKind::kRead},
                            {scratch, scratch_size,
                             uvm::AccessKind::kWrite}};
        produce.compute = sim::microseconds(300);
        rt.launch(produce);
        cuda::KernelDesc consume;
        consume.name = "ra.consume" + std::to_string(i);
        consume.accesses = {{scratch, scratch_size,
                             uvm::AccessKind::kRead},
                            {work, work_size,
                             uvm::AccessKind::kReadWrite}};
        consume.compute = sim::microseconds(300);
        rt.launch(consume);
        // Scratch is dead now; only one policy says so.
        if (policy == DeadPolicy::kMigrateDiscard) {
            rt.discardAsync(scratch, scratch_size,
                            uvm::DiscardMode::kLazy);
        }
        // The other working phase creates the memory pressure that
        // pushes the (dead) scratch out.
        cuda::KernelDesc phase;
        phase.name = "ra.phase" + std::to_string(i);
        phase.accesses = {{other, other_size,
                           uvm::AccessKind::kReadWrite}};
        phase.compute = sim::microseconds(600);
        rt.launch(phase);
    }
    rt.synchronize();
    return {rt.now() - t0, rt.driver().totalTrafficBytes()};
}

const char *
name(DeadPolicy p)
{
    switch (p) {
      case DeadPolicy::kMigrate:
        return "migrate (UVM-opt)";
      case DeadPolicy::kRemote:
        return "remote scratch";
      case DeadPolicy::kMigrateDiscard:
        return "migrate + discard";
    }
    return "?";
}

}  // namespace

/** The harness body; main() turns a sim::FatalError into exit 1. */
static int
runHarness(int argc, char **argv)
{
    using namespace uvmd;
    using namespace uvmd::bench;

    int jobs = parseSweepArgs(argc, argv);
    banner("Extension: coherent remote access vs migration vs "
           "discard (Sections 2.3/3.2)");

    const int reuse_grid[] = {1, 2, 4, 16};
    const DeadPolicy dead_grid[] = {DeadPolicy::kMigrate,
                                    DeadPolicy::kRemote,
                                    DeadPolicy::kMigrateDiscard};
    for (auto link : {interconnect::LinkSpec::pcie4(),
                      interconnect::LinkSpec::nvlink()}) {
        trace::Table reuse("(a) 64 MiB read-only buffer, " +
                           link.name);
        reuse.header({"Reads", "Remote ms", "Remote GB", "Migrate ms",
                      "Migrate GB"});
        // One task per (reuse count, remote?) run; rows pair up the
        // remote/migrate results, so buffer the outcomes first.
        Outcome part_a[4][2];
        runIndexedSweep(
            jobs, 8,
            [&](std::size_t i) {
                return runReuse(/*remote=*/i % 2 == 0,
                                reuse_grid[i / 2], link);
            },
            [&](std::size_t i, Outcome &&o) {
                part_a[i / 2][i % 2] = o;
            });
        for (std::size_t i = 0; i < 4; ++i) {
            const Outcome &r = part_a[i][0];
            const Outcome &m = part_a[i][1];
            reuse.row({std::to_string(reuse_grid[i]),
                       trace::fmt(sim::toMilliseconds(r.elapsed), 2),
                       trace::fmt(r.traffic / 1e9, 3),
                       trace::fmt(sim::toMilliseconds(m.elapsed), 2),
                       trace::fmt(m.traffic / 1e9, 3)});
        }
        reuse.print();
        reuse.writeCsv("ablation_remote_reuse_" + link.name + ".csv");

        trace::Table dead("(b) Figure-2 pattern on a coherent link, "
                          "12 iterations, " + link.name);
        dead.header({"Policy", "Runtime (ms)", "Link traffic (GB)"});
        runIndexedSweep(
            jobs, 3,
            [&](std::size_t i) {
                return runDeadData(dead_grid[i], link);
            },
            [&](std::size_t i, Outcome &&o) {
                dead.row({name(dead_grid[i]),
                          trace::fmt(sim::toMilliseconds(o.elapsed),
                                     2),
                          trace::fmt(o.traffic / 1e9, 3)});
            });
        dead.print();
        dead.writeCsv("ablation_remote_dead_" + link.name + ".csv");
    }

    std::printf("\nExpected: (a) remote wins single-touch, migration "
                "wins with reuse; (b) remote writing beats migrating "
                "dead data back and forth, but the discard directive "
                "beats both — coherent interconnects still need it "
                "(Section 3.2).\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
