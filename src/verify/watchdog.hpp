/**
 * @file
 * Two-level progress watchdogs for verification runs.
 *
 * Fuzzed scenarios can hang in two distinct ways, and each needs its
 * own detector:
 *
 *  1. *Livelock inside the simulator*: an eviction/allocation loop
 *     spins without advancing simulated time (e.g. a policy bug where
 *     reclaimChunk keeps picking a victim that frees nothing).  The
 *     ProgressMonitor plugs into UvmDriver::setProgressSink and
 *     watches the sim clock from inside those loops; if a loop phase
 *     iterates too many times without the clock moving, it throws a
 *     WatchdogError carrying the phase name — the run dies with a
 *     diagnosable artifact instead of pinning a CPU forever.
 *
 *  2. *Wall-clock runaway*: the sim makes "progress" but never
 *     terminates (unbounded event cascades), or some host-side loop
 *     hangs where no sink is consulted.  The Watchdog's timer arms a
 *     hard deadline per scenario (the DSL's `deadline 5s` directive,
 *     or a harness default); on expiry it prints a diagnosis to
 *     stderr and _Exit()s with WatchdogError::kExitCode, because a
 *     hung thread cannot be recovered from within the process.
 *
 * Both are deliberately simple and allocation-free on the hot path:
 * the monitor is consulted inside driver loops.
 */

#ifndef UVMD_VERIFY_WATCHDOG_HPP
#define UVMD_VERIFY_WATCHDOG_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>

#include "sim/logging.hpp"
#include "sim/progress.hpp"

namespace uvmd::verify {

/** Thrown (or exited with) when a watchdog trips. */
class WatchdogError : public sim::FatalError
{
  public:
    /** Process exit status used when recovery-by-throw is impossible
     *  (wall-clock trips) and by harnesses reporting watchdog trips. */
    static constexpr int kExitCode = 5;

    explicit WatchdogError(const std::string &what)
        : sim::FatalError(what)
    {}
};

/**
 * Sim-time livelock monitor (level 1).  Counts consecutive onStep
 * calls per phase where simulated time failed to advance; throws
 * WatchdogError past the limit.  Also enforces a total step budget
 * across all phases as a backstop against "progressing" loops that
 * never converge.
 */
class ProgressMonitor : public sim::ProgressSink
{
  public:
    struct Limits {
        /** Max iterations of one loop phase with a frozen sim clock. */
        std::uint64_t max_stalled_steps = 100000;
        /** Max onStep calls over the whole scenario (0 = unlimited). */
        std::uint64_t max_total_steps = 50000000;
    };

    ProgressMonitor() = default;
    explicit ProgressMonitor(Limits limits) : limits_(limits) {}

    void onStep(const char *phase, sim::SimTime now) override;

    std::uint64_t totalSteps() const { return total_steps_; }

  private:
    Limits limits_{};
    const char *phase_ = nullptr;  // identity compare: static strings
    sim::SimTime last_time_ = 0;
    std::uint64_t stalled_ = 0;
    std::uint64_t total_steps_ = 0;
};

/**
 * Wall-clock deadline watchdog (level 2).  One CLOCK_MONOTONIC kernel
 * timer per instance; arm() starts the countdown, disarm() cancels it.
 * On expiry the timer raises SIGRTMAX; the handler (installed by the
 * first Watchdog) prints the diagnosis and std::_Exit(kExitCode)s on
 * whichever thread it interrupts, as the hung thread cannot throw.
 * (Under ThreadSanitizer it waits for that thread's next libc call.)
 */
class Watchdog
{
  public:
    /** Throws sim::FatalError when no timer can be created. */
    Watchdog();
    ~Watchdog() { timer_delete(timer_); }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /**
     * Start (or restart) the countdown: unless disarm() is called
     * within @p after (0 expires at once), the process exits.  @p what
     * names the guarded work (scenario path, seed, ...) for the
     * diagnosis line.
     */
    void arm(std::chrono::nanoseconds after, const std::string &what);

    /** Cancel the countdown (idempotent; no-op when never armed). */
    void disarm();

  private:
    timer_t timer_{};
    /** arm()'s diagnosis line, NUL-terminated; atomic chars so the
     *  handler reads it on any thread without a race. */
    std::array<std::atomic<char>, 256> line_{};
};

}  // namespace uvmd::verify

#endif  // UVMD_VERIFY_WATCHDOG_HPP
