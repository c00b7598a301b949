#include "verify/watchdog.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include <unistd.h>

namespace uvmd::verify {

void
ProgressMonitor::onStep(const char *phase, sim::SimTime now)
{
    ++total_steps_;
    if (limits_.max_total_steps &&
        total_steps_ > limits_.max_total_steps) {
        std::ostringstream os;
        os << "watchdog: scenario exceeded "
           << limits_.max_total_steps
           << " progress steps (last phase '" << phase
           << "', sim time " << now << "ns)";
        throw WatchdogError(os.str());
    }
    // Phase identity is compared by pointer first (the driver passes
    // string literals) with a strcmp fallback, so distinct call sites
    // sharing a label still count as one phase.
    bool same_phase =
        phase_ && (phase_ == phase || std::strcmp(phase_, phase) == 0);
    if (same_phase && now <= last_time_) {
        if (++stalled_ > limits_.max_stalled_steps) {
            std::ostringstream os;
            os << "watchdog: livelock in phase '" << phase << "': "
               << stalled_ << " iterations with sim time stuck at "
               << now << "ns";
            throw WatchdogError(os.str());
        }
    } else {
        stalled_ = 0;
    }
    phase_ = phase;
    last_time_ = now;
}

namespace {

/** SIGRTMAX handler: writes the diagnosis line si_value points at and
 *  exits.  Async-signal-safe calls only; no destructors, no atexit:
 *  any of those could hang on the same stuck state. */
void
onExpiry(int, siginfo_t *info, void *)
{
    if (info->si_code != SI_TIMER)
        return;
    const auto *line =
        static_cast<const std::atomic<char> *>(info->si_value.sival_ptr);
    char out[256];
    std::size_t n = 0;
    while (n < sizeof(out) &&
           (out[n] = line[n].load(std::memory_order_relaxed)) != '\0')
        ++n;
    (void)!::write(STDERR_FILENO, out, n);
    std::_Exit(WatchdogError::kExitCode);
}

}  // namespace

Watchdog::Watchdog()
{
    static const bool handler_installed = [] {
        struct sigaction sa{};
        sa.sa_sigaction = &onExpiry;
        sa.sa_flags = SA_SIGINFO;
        return sigaction(SIGRTMAX, &sa, nullptr) == 0;
    }();
    sigevent ev{};
    ev.sigev_notify = SIGEV_SIGNAL;
    ev.sigev_signo = SIGRTMAX;
    ev.sigev_value.sival_ptr = line_.data();
    if (!handler_installed ||
        timer_create(CLOCK_MONOTONIC, &ev, &timer_) != 0)
        throw sim::FatalError(
            std::string("watchdog: cannot create a wall-clock timer: ") +
            std::strerror(errno));
}

void
Watchdog::arm(std::chrono::nanoseconds after, const std::string &what)
{
    using namespace std::literals;
    static_assert(WatchdogError::kExitCode == 5);
    std::size_t n = 0;
    for (std::string_view s :
         {"uvmd watchdog: wall-clock deadline expired for "sv,
          what.empty() ? "<unnamed scenario>"sv : std::string_view(what),
          "; killing run (exit 5)\n"sv})
        for (char c : s.substr(0, line_.size() - 1 - n))
            line_[n++].store(c, std::memory_order_relaxed);
    line_[n].store('\0', std::memory_order_relaxed);
    // A zero it_value would disarm the timer instead of expiring it.
    std::int64_t ns = std::max<std::int64_t>(after.count(), 1);
    itimerspec spec{{0, 0}, {ns / 1000000000, ns % 1000000000}};
    timer_settime(timer_, 0, &spec, nullptr);
}

void
Watchdog::disarm()
{
    itimerspec off{};
    timer_settime(timer_, 0, &off, nullptr);
}

}  // namespace uvmd::verify
