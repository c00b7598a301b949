/**
 * @file
 * Tests for the host-parallel sweep runner: the runIndexedSweep
 * contract (every index runs once, results are consumed in index
 * order so output matches the serial run exactly, a task exception is
 * rethrown after every index ran), and a real simulator sweep run
 * serially and in parallel with per-config results asserted
 * identical.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep_runner.hpp"
#include "workloads/fir.hpp"

namespace uvmd {
namespace {

TEST(SweepRunner, ConsumesInIndexOrderRegardlessOfJobs)
{
    for (int jobs : {1, 2, 7}) {
        std::vector<std::size_t> order;
        std::vector<int> values;
        bench::runIndexedSweep(
            jobs, 20,
            [](std::size_t i) { return static_cast<int>(i * i); },
            [&](std::size_t i, int &&v) {
                order.push_back(i);
                values.push_back(v);
            });
        ASSERT_EQ(order.size(), 20u) << "jobs=" << jobs;
        for (std::size_t i = 0; i < 20; ++i) {
            EXPECT_EQ(order[i], i);
            EXPECT_EQ(values[i], static_cast<int>(i * i));
        }
    }
}

TEST(SweepRunner, SerialInterleavesTaskAndConsume)
{
    // jobs == 1 must preserve the historical behavior: each config is
    // consumed before the next one runs (no buffering).
    std::vector<std::string> trace;
    bench::runIndexedSweep(
        1, 3,
        [&](std::size_t i) {
            trace.push_back("task" + std::to_string(i));
            return 0;
        },
        [&](std::size_t i, int &&) {
            trace.push_back("consume" + std::to_string(i));
        });
    EXPECT_EQ(trace,
              (std::vector<std::string>{"task0", "consume0", "task1",
                                        "consume1", "task2",
                                        "consume2"}));
}

TEST(SweepRunner, TaskExceptionPropagates)
{
    // A failing config does not stop the others; the first failure is
    // rethrown once every index ran, and nothing is consumed.
    std::vector<std::atomic<int>> runs(10);
    int consumed = 0;
    EXPECT_THROW(
        bench::runIndexedSweep(
            3, runs.size(),
            [&](std::size_t i) {
                ++runs[i];
                if (i == 2 || i == 5)
                    throw std::runtime_error("config failed");
                return 1;
            },
            [&](std::size_t, int &&) { ++consumed; }),
        std::runtime_error);
    EXPECT_EQ(consumed, 0);
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(runs[i].load(), 1) << i;
}

TEST(SweepRunner, MoreJobsThanIndicesRunsEachIndexOnce)
{
    std::vector<std::atomic<int>> runs(5);
    std::vector<std::size_t> order;
    bench::runIndexedSweep(
        16, runs.size(),
        [&](std::size_t i) {
            ++runs[i];
            return i;
        },
        [&](std::size_t i, std::size_t &&v) {
            EXPECT_EQ(v, i);
            order.push_back(i);
        });
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(runs[i].load(), 1) << i;
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(SweepRunner, EmptySweepRunsAndConsumesNothing)
{
    for (int jobs : {1, 4}) {
        int calls = 0;
        bench::runIndexedSweep(
            jobs, 0,
            [&](std::size_t) {
                ++calls;
                return 0;
            },
            [&](std::size_t, int &&) { ++calls; });
        EXPECT_EQ(calls, 0) << "jobs=" << jobs;
    }
}

TEST(SweepRunner, SimulatorSweepIsIdenticalSerialAndParallel)
{
    // The real contract behind the fig/table harnesses: independent
    // simulator instances produce bit-identical per-config results
    // whether they ran serially or on worker threads.
    using workloads::FirParams;
    using workloads::RunResult;
    using workloads::System;

    const double ratios[] = {1.0, 2.0};
    const System systems[] = {System::kUvmOpt, System::kUvmDiscard};
    struct Config {
        double ratio;
        System sys;
    };
    std::vector<Config> grid;
    for (double ratio : ratios) {
        for (System sys : systems)
            grid.push_back(Config{ratio, sys});
    }

    auto task = [&](std::size_t i) {
        FirParams p;
        // A small instance keeps the test quick.
        p.input_bytes = 600'000'000;
        p.window_bytes = 32 * sim::kMiB;
        p.state_bytes = 128 * sim::kMiB;
        p.output_bytes = 8 * sim::kMiB;
        p.ovsp_ratio = grid[i].ratio;
        uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
        cfg.gpu_memory = 1 * sim::kGiB;
        return workloads::runFir(grid[i].sys, p,
                                 interconnect::LinkSpec::pcie4(), cfg);
    };

    auto run = [&](int jobs) {
        std::vector<RunResult> out;
        bench::runIndexedSweep(jobs, grid.size(), task,
                               [&](std::size_t, RunResult &&r) {
                                   out.push_back(std::move(r));
                               });
        return out;
    };

    std::vector<RunResult> serial = run(1);
    std::vector<RunResult> parallel = run(3);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].elapsed, parallel[i].elapsed) << i;
        EXPECT_EQ(serial[i].traffic_h2d, parallel[i].traffic_h2d) << i;
        EXPECT_EQ(serial[i].traffic_d2h, parallel[i].traffic_d2h) << i;
        EXPECT_EQ(serial[i].evictions_used, parallel[i].evictions_used)
            << i;
        EXPECT_EQ(serial[i].skipped_by_discard,
                  parallel[i].skipped_by_discard)
            << i;
    }
}

}  // namespace
}  // namespace uvmd
