/**
 * @file
 * Severity-split logging in the gem5 tradition.
 *
 *  - panic():  an internal invariant of the simulator is broken (a bug
 *              in uvmd itself).  Aborts so a debugger/core is useful.
 *  - fatal():  the *user's* configuration or program is invalid (e.g.
 *              No-UVM allocation exceeding GPU capacity).  Throws
 *              FatalError so tests can assert on it.
 *  - warn():   something is suspicious but simulation continues (e.g.
 *              writing a lazily-discarded page without the mandatory
 *              prefetch).
 */

#ifndef UVMD_SIM_LOGGING_HPP
#define UVMD_SIM_LOGGING_HPP

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace uvmd::sim {

/** Exception thrown by fatal(): a user-level configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what) {}
};

/** Verbosity levels for warn() output. */
enum class LogLevel { kQuiet, kNormal };

/** Process-wide log level; tests that provoke warnings set kQuiet. */
LogLevel logLevel();
void setLogLevel(LogLevel level);

/** Number of warn() calls so far (tests assert on warning emission). */
std::uint64_t warnCount();
void resetWarnCount();

[[noreturn]] void panic(const std::string &msg);
[[noreturn]] void fatal(const std::string &msg);
void warn(const std::string &msg);

}  // namespace uvmd::sim

#endif  // UVMD_SIM_LOGGING_HPP
