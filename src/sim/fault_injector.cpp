#include "sim/fault_injector.hpp"

#include <algorithm>
#include <numeric>

#include "sim/logging.hpp"

namespace uvmd::sim {

const char *toString(FaultKind kind)
{
    switch (kind) {
    case FaultKind::kDmaTransient: return "dma_transient";
    case FaultKind::kChunkFailure: return "chunk_failure";
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kEngineOffline: return "engine_offline";
    case FaultKind::kAllocFailure: return "alloc_failure";
    }
    return "unknown";
}

FaultInjector::FaultInjector(const FaultPlan &plan)
    : plan_(plan), rng_(plan.seed)
{
    if (plan_.enabled) {
        if (plan_.dma_fault_rate < 0.0 || plan_.dma_fault_rate > 1.0 ||
            plan_.chunk_retire_rate < 0.0 || plan_.chunk_retire_rate > 1.0 ||
            plan_.alloc_fail_rate < 0.0 || plan_.alloc_fail_rate > 1.0) {
            fatal("FaultInjector: fault rates must lie in [0, 1]");
        }
        if (plan_.dma_max_retries < 0 || plan_.alloc_max_retries < 0) {
            fatal("FaultInjector: retry limits must be non-negative");
        }
        if (plan_.dma_retry_backoff < 0) {
            fatal("FaultInjector: retry backoff must be non-negative");
        }
        for (const LinkFaultEvent &ev : plan_.link_events) {
            if (ev.bandwidth_factor <= 0.0 || ev.bandwidth_factor > 1.0) {
                fatal("FaultInjector: bandwidth_factor must lie in (0, 1]");
            }
        }
        // Events fire in threshold order regardless of plan order.
        std::stable_sort(plan_.link_events.begin(), plan_.link_events.end(),
                         [](const LinkFaultEvent &a, const LinkFaultEvent &b) {
                             return a.after_descriptors < b.after_descriptors;
                         });
    }
}

bool FaultInjector::dmaDescriptorFails()
{
    if (!plan_.enabled || plan_.dma_fault_rate <= 0.0) {
        return false;
    }
    if (!rng_.chance(plan_.dma_fault_rate)) {
        return false;
    }
    ++tally_[FaultStat::dma_faults];
    return true;
}

bool FaultInjector::allocFails()
{
    if (!plan_.enabled || plan_.alloc_fail_rate <= 0.0) {
        return false;
    }
    if (!rng_.chance(plan_.alloc_fail_rate)) {
        return false;
    }
    ++tally_[FaultStat::alloc_faults];
    return true;
}

bool FaultInjector::chunkFails()
{
    if (!plan_.enabled || plan_.chunk_retire_rate <= 0.0) {
        return false;
    }
    if (!rng_.chance(plan_.chunk_retire_rate)) {
        return false;
    }
    ++tally_[FaultStat::chunk_faults];
    return true;
}

std::uint64_t FaultInjector::pickVictim(std::uint64_t n)
{
    if (n == 0) {
        panic("FaultInjector::pickVictim: empty victim set");
    }
    return rng_.below(n);
}

std::vector<LinkFaultEvent>
FaultInjector::takeDueLinkEvents(std::uint64_t descriptors_issued)
{
    std::vector<LinkFaultEvent> due;
    if (!plan_.enabled) {
        return due;
    }
    while (next_link_event_ < plan_.link_events.size() &&
           plan_.link_events[next_link_event_].after_descriptors <=
               descriptors_issued) {
        due.push_back(plan_.link_events[next_link_event_]);
        ++next_link_event_;
    }
    return due;
}

int FaultInjector::noteLinkEventApplied(const LinkFaultEvent &ev)
{
    int tallied = 0;
    if (ev.bandwidth_factor < 1.0) {
        ++tally_[FaultStat::link_degrades];
        ++tallied;
    }
    if (ev.offline_engine >= 0) {
        ++tally_[FaultStat::engines_offlined];
        ++tallied;
    }
    return tallied;
}

std::uint64_t FaultInjector::totalInjected() const
{
    const std::span<const std::uint64_t> v = tally_.group().values();
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

}  // namespace uvmd::sim
