#include "sim/logging.hpp"

#include <atomic>

namespace uvmd::sim {

namespace {

std::atomic<LogLevel> g_level{LogLevel::kNormal};
std::atomic<std::uint64_t> g_warn_count{0};

}  // namespace

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

std::uint64_t
warnCount()
{
    return g_warn_count.load(std::memory_order_relaxed);
}

void
resetWarnCount()
{
    g_warn_count.store(0, std::memory_order_relaxed);
}

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

void
warn(const std::string &msg)
{
    g_warn_count.fetch_add(1, std::memory_order_relaxed);
    if (logLevel() != LogLevel::kQuiet)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

}  // namespace uvmd::sim
