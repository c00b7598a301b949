/**
 * @file
 * Host-parallel sweep driver for the bench harnesses.
 *
 * Every paper figure/table is a grid of fully independent simulator
 * runs (each config constructs its own Runtime, driver and RNG), so
 * they parallelize across host cores without touching the simulator.
 * Determinism contract: `runIndexedSweep` always delivers results to
 * `consume` in index order, so bench output — tables, CSVs, stdout —
 * is bit-identical for any `--jobs` value.  With jobs == 1 no thread
 * is started at all and each config is consumed right after it runs
 * (exactly the pre-parallel behavior).
 *
 * Benches opt in via `parseSweepArgs(argc, argv)`, which understands
 * `--jobs N` / `--jobs=N`; `--jobs 0` means one job per hardware
 * thread.
 */

#ifndef UVMD_BENCH_SWEEP_RUNNER_HPP
#define UVMD_BENCH_SWEEP_RUNNER_HPP

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace uvmd::bench {

/** Hardware threads of this host, at least 1. */
inline int
hardwareJobs()
{
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

inline int
parseJobsValue(const char *text)
{
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < 0) {
        std::fprintf(stderr, "bad --jobs value '%s'\n", text);
        std::exit(2);
    }
    return v == 0 ? hardwareJobs() : static_cast<int>(v);
}

/** Parse `--jobs N` / `--jobs=N` from the bench command line and
 *  return the job count (1 without the flag).  Unknown arguments are
 *  rejected so typos fail loudly instead of silently running serial. */
inline int
parseSweepArgs(int argc, char **argv)
{
    int jobs = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
            jobs = parseJobsValue(argv[++i]);
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            jobs = parseJobsValue(arg + 7);
        } else {
            std::fprintf(stderr, "usage: %s [--jobs N]\n", argv[0]);
            std::exit(2);
        }
    }
    return jobs;
}

/**
 * Run @p task(i) for i in [0, n) and hand each result to
 * @p consume(i, result), always consuming in ascending index order.
 *
 * jobs <= 1: strictly sequential, task and consume interleaved (the
 * historical bench behavior).  jobs > 1: min(jobs, n) threads claim
 * indices from one atomic counter; results are buffered and consumed
 * serially after every thread joined, so @p consume may touch shared
 * state (maps, tables, stdout) without locking and output stays
 * bit-identical to the serial run.  A throwing task does not stop the
 * others: every index still runs, then the first exception caught is
 * rethrown and nothing is consumed.
 */
template <typename Task, typename Consume>
void
runIndexedSweep(int jobs, std::size_t n, Task &&task, Consume &&consume)
{
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            consume(i, task(i));
        return;
    }

    using R = decltype(task(std::size_t{0}));
    std::vector<std::optional<R>> results(n);
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    auto worker = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                results[i].emplace(task(i));
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    {
        // jthreads join when the vector goes, on the throwing path of
        // a failed thread start too.
        std::vector<std::jthread> threads;
        std::size_t workers = std::min(static_cast<std::size_t>(jobs), n);
        threads.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            threads.emplace_back(worker);
    }
    if (first_error)
        std::rethrow_exception(first_error);
    for (std::size_t i = 0; i < n; ++i)
        consume(i, std::move(*results[i]));
}

}  // namespace uvmd::bench

#endif  // UVMD_BENCH_SWEEP_RUNNER_HPP
