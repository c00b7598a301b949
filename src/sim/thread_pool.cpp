#include "sim/thread_pool.hpp"

#include "sim/logging.hpp"

namespace uvmd::sim {

ThreadPool::ThreadPool(std::size_t workers)
{
    if (workers == 0)
        panic("ThreadPool: need at least one worker");
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    work_cv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock,
                  [this] { return queue_.empty() && in_flight_ == 0; });
    if (first_error_) {
        std::exception_ptr err = first_error_;
        first_error_ = nullptr;
        std::rethrow_exception(err);
    }
}

std::size_t
ThreadPool::hardwareConcurrency()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(
                lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return;  // stop_ set and nothing left to do
            task = std::move(queue_.front());
            queue_.pop_front();
            ++in_flight_;
        }
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!first_error_)
                first_error_ = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --in_flight_;
            if (queue_.empty() && in_flight_ == 0)
                idle_cv_.notify_all();
        }
    }
}

}  // namespace uvmd::sim
