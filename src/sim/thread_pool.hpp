/**
 * @file
 * A small fixed-size worker pool for host-parallel simulation sweeps.
 *
 * The simulator itself is single-threaded by design (determinism),
 * but bench sweeps run hundreds of fully independent simulator
 * instances — each config owns its Runtime, driver and RNG — so they
 * parallelize trivially across host cores.  This pool is deliberately
 * minimal: submit() closures, wait() for all of them, first exception
 * rethrown on wait.  Each task runs a whole simulation, so the small
 * allocation a std::function may make per submit is negligible.
 * Result ordering/determinism is the caller's job (see
 * bench/sweep_runner.hpp, which consumes results in index order
 * regardless of completion order).
 */

#ifndef UVMD_SIM_THREAD_POOL_HPP
#define UVMD_SIM_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace uvmd::sim {

class ThreadPool
{
  public:
    /** Start @p workers worker threads.  @pre workers >= 1. */
    explicit ThreadPool(std::size_t workers);

    /** Drains the queue (waits for all submitted work) and joins. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task for execution on some worker. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished.  If any task
     * threw, rethrows the first exception (by submission-completion
     * order of observation) after the queue drains.
     */
    void wait();

    /** Number of hardware threads, at least 1. */
    static std::size_t hardwareConcurrency();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable work_cv_;  // workers wait for tasks
    std::condition_variable idle_cv_;  // wait() waits for drain
    std::deque<std::function<void()>> queue_;
    std::size_t in_flight_ = 0;
    bool stop_ = false;
    std::exception_ptr first_error_;
    std::vector<std::thread> workers_;
};

}  // namespace uvmd::sim

#endif  // UVMD_SIM_THREAD_POOL_HPP
