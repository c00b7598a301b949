/**
 * @file
 * Chaos property test: run randomized workloads under randomized fault
 * schedules, in lockstep with a fault-free reference driver, and check
 * that
 *
 *   - the driver's internal invariants (residency exclusivity, queue
 *     membership, chunk capacity including retirement) hold after
 *     every operation,
 *   - workload data is bit-exact against both the written model and
 *     the fault-free reference run — recovery never corrupts data,
 *   - every injected fault is observable: the onFault events an
 *     observer receives and the driver's fault counters reconcile
 *     exactly with the injector's own tally.
 *
 * Runs under the `chaos` ctest label (and `sanitized` in asan builds).
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/random.hpp"
#include "test_util.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {
namespace {

using mem::kBigPageSize;

constexpr int kSeeds = 32;
constexpr int kBlocks = 6;   // working set: 6 blocks over a 4-chunk GPU
constexpr int kOpsPerSeed = 48;

struct BlockModel {
    bool written = false;
    bool discarded = false;  // discarded since the last write
    std::uint64_t value = 0;
};

uvm::UvmConfig
chaosConfig(std::uint64_t seed)
{
    uvm::UvmConfig cfg = test::tinyConfig(/*chunks=*/4);
    cfg.copy_engines_per_dir = 2;
    cfg.faults.enabled = true;
    cfg.faults.seed = seed * 7919 + 1;
    cfg.faults.dma_fault_rate = 0.08;
    cfg.faults.dma_max_retries = 24;
    cfg.faults.alloc_fail_rate = 0.2;
    cfg.faults.alloc_max_retries = 2;
    cfg.faults.chunk_retire_rate = 0.03;
    cfg.faults.chunk_retire_floor = 2;
    cfg.faults.oom_remote_fallback = (seed % 2) == 0;
    if (seed % 2 == 1)
        cfg.faults.link_events.push_back({30, 0, 0.5, -1, 0});
    if (seed % 3 == 0)
        cfg.faults.link_events.push_back({50, 0, 1.0, 1, 0});
    return cfg;
}

TEST(Chaos, RandomFaultSchedulesPreserveDataAndInvariants)
{
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));

        UvmDriver faulty(chaosConfig(seed), test::testLink());
        UvmDriver ref(test::tinyConfig(/*chunks=*/4), test::testLink());
        test::EventRecorder log;
        faulty.setObserver(&log);

        mem::VirtAddr base_f =
            faulty.allocManaged(kBlocks * kBigPageSize, "chaos");
        mem::VirtAddr base_r =
            ref.allocManaged(kBlocks * kBigPageSize, "chaos");

        std::vector<BlockModel> model(kBlocks);
        sim::Rng rng(seed + 1);
        sim::SimTime tf = 0, tr = 0;
        std::uint64_t next_value = seed * 1000 + 1;
        std::uint64_t ooms = 0;

        for (int op = 0; op < kOpsPerSeed; ++op) {
            int i = static_cast<int>(rng.below(kBlocks));
            mem::VirtAddr af = base_f + i * kBigPageSize;
            mem::VirtAddr ar = base_r + i * kBigPageSize;
            switch (rng.below(5)) {
              case 0: {  // host write
                tf = faulty.hostAccess(af, kBigPageSize,
                                       AccessKind::kWrite, tf);
                tr = ref.hostAccess(ar, kBigPageSize,
                                    AccessKind::kWrite, tr);
                std::uint64_t v = next_value++;
                faulty.pokeValue<std::uint64_t>(af, v);
                ref.pokeValue<std::uint64_t>(ar, v);
                model[i] = {true, false, v};
                break;
              }
              case 1: {  // gpu touch (may OOM when fallback is off)
                std::vector<Access> acc{
                    {af, kBigPageSize, AccessKind::kReadWrite}};
                try {
                    tf = faulty.gpuAccess(0, acc, tf);
                } catch (const GpuOomError &) {
                    ++ooms;
                }
                std::vector<Access> acc_r{
                    {ar, kBigPageSize, AccessKind::kReadWrite}};
                tr = ref.gpuAccess(0, acc_r, tr);
                break;
              }
              case 2: {  // prefetch to GPU
                try {
                    tf = faulty.prefetch(af, kBigPageSize,
                                         ProcessorId::gpu(0), tf);
                } catch (const GpuOomError &) {
                    ++ooms;
                }
                tr = ref.prefetch(ar, kBigPageSize,
                                  ProcessorId::gpu(0), tr);
                break;
              }
              case 3: {  // prefetch back to the CPU
                tf = faulty.prefetch(af, kBigPageSize,
                                     ProcessorId::cpu(), tf);
                tr = ref.prefetch(ar, kBigPageSize,
                                  ProcessorId::cpu(), tr);
                break;
              }
              case 4: {  // eager discard: data is dead until rewritten
                tf = faulty.discard(af, kBigPageSize,
                                    DiscardMode::kEager, tf);
                tr = ref.discard(ar, kBigPageSize, DiscardMode::kEager,
                                 tr);
                model[i].discarded = true;
                break;
              }
            }
            ASSERT_NO_THROW(faulty.checkInvariants());
            ASSERT_NO_THROW(ref.checkInvariants());
        }

        // With a 1-chunk working set per op over >= 2 usable chunks,
        // eviction always finds a victim: true OOM can only appear
        // through the remote-access fallback path, never as a throw
        // from these single-block ops.
        EXPECT_EQ(ooms, 0u);

        // ---- Data: bit-exact against the model and the reference ----
        for (int i = 0; i < kBlocks; ++i) {
            if (!model[i].written || model[i].discarded)
                continue;
            SCOPED_TRACE("block=" + std::to_string(i));
            std::uint64_t got_f = faulty.peekValue<std::uint64_t>(
                base_f + i * kBigPageSize);
            std::uint64_t got_r = ref.peekValue<std::uint64_t>(
                base_r + i * kBigPageSize);
            EXPECT_EQ(got_f, model[i].value);
            EXPECT_EQ(got_r, model[i].value);
            EXPECT_EQ(got_f, got_r);
        }

        // ---- Observability: counters reconcile with the injector ----
        const auto &c = faulty.counters();
        const auto &tally = faulty.faultInjector().tally();
        EXPECT_EQ(c.get("fault_injected"),
                  faulty.faultInjector().totalInjected());

        std::uint64_t log_retries = log.faults(FaultEvent::kDmaRetry);
        std::uint64_t log_retirements =
            log.faults(FaultEvent::kChunkRetired);
        std::uint64_t log_fallbacks =
            log.faults(FaultEvent::kOomFallback);
        std::uint64_t log_faults = log.only("X").size() - log_retries -
                                   log_retirements - log_fallbacks;
        // Every fault_injected increment produced exactly one fault or
        // retirement event.
        EXPECT_EQ(log_faults + log_retirements,
                  c.get("fault_injected"));
        EXPECT_EQ(log_retries, c.get("transfer_retries"));
        EXPECT_EQ(log_retirements * mem::kPagesPerBlock,
                  c.get("pages_retired"));
        EXPECT_EQ(log_fallbacks, c.get("oom_fallbacks"));
        EXPECT_EQ(tally.get("dma_faults") + tally.get("chunk_faults") +
                      tally.get("alloc_faults") +
                      tally.get("link_degrades") +
                      tally.get("engines_offlined"),
                  c.get("fault_injected"));

        // ---- Capacity: retirement shrank usable memory coherently ----
        const auto &alloc = faulty.allocator(0);
        EXPECT_LE(alloc.allocatedChunks() + alloc.reservedChunks() +
                      alloc.retiredChunks(),
                  alloc.totalChunks());
        EXPECT_GE(alloc.totalChunks() - alloc.reservedChunks() -
                      alloc.retiredChunks(),
                  faulty.config().faults.chunk_retire_floor);
    }
}

}  // namespace
}  // namespace uvmd::uvm
