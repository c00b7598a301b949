#include "interconnect/link.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hpp"

namespace uvmd::interconnect {

const char *
toString(Direction dir)
{
    return dir == Direction::kHostToDevice ? "h2d" : "d2h";
}

LinkSpec
LinkSpec::pcie3()
{
    return {"pcie3", 12.2, sim::microseconds(8)};
}

LinkSpec
LinkSpec::pcie4()
{
    return {"pcie4", 25.0, sim::microseconds(8)};
}

LinkSpec
LinkSpec::nvlink()
{
    return {"nvlink", 50.0, sim::microseconds(2)};
}

Link::Link(LinkSpec spec, int engines_per_dir) : spec_(std::move(spec))
{
    if (engines_per_dir < 1)
        sim::fatal("Link: need at least one copy engine per direction");
    for (Lane &l : lanes_) {
        l.engines.resize(engines_per_dir);
        l.offline.resize(engines_per_dir);
    }
}

std::uint32_t
Link::pickEngine(Direction dir) const
{
    const Lane &l = lane(dir);
    std::uint32_t best = l.engines.size();
    for (std::uint32_t i = 0; i < l.engines.size(); ++i) {
        if (l.offline[i])
            continue;
        if (best == l.engines.size() ||
            l.engines[i].freeAt() < l.engines[best].freeAt())
            best = i;
    }
    if (best == l.engines.size())
        sim::panic("Link: no online copy engine");
    return best;
}

sim::SimTime
Link::issueOn(std::uint32_t engine, Direction dir, sim::SimTime earliest,
              sim::Bytes bytes, std::uint32_t descriptors)
{
    Lane &l = lane(dir);
    if (engine >= l.engines.size())
        sim::panic("Link: bad engine index");
    if (l.offline[engine])
        sim::panic("Link: issue on an offline engine");
    sim::SimDuration duration =
        descriptors * spec_.setup +
        sim::transferTime(bytes, spec_.peak_gbps * bandwidth_factor_);
    return l.engines[engine].reserve(earliest, duration);
}

bool
Link::setEngineOffline(Direction dir, std::uint32_t index,
                       sim::SimTime now)
{
    Lane &l = lane(dir);
    if (index >= l.engines.size() || l.offline[index])
        return false;
    if (onlineEngines(dir) <= 1)
        return false;  // never strand a direction with no engine
    l.offline[index] = true;
    // Reschedule the queued backlog onto the least-loaded survivor.
    sim::SimDuration backlog = l.engines[index].freeAt() - now;
    if (backlog > 0)
        l.engines[pickEngine(dir)].reserve(now, backlog);
    return true;
}

bool
Link::engineOffline(Direction dir, std::uint32_t index) const
{
    const Lane &l = lane(dir);
    return index < l.offline.size() && l.offline[index];
}

int
Link::onlineEngines(Direction dir) const
{
    const Lane &l = lane(dir);
    return std::count(l.offline.begin(), l.offline.end(), false);
}

void
Link::scaleBandwidth(double factor)
{
    if (factor <= 0.0 || factor > 1.0)
        sim::panic("Link: bandwidth factor must be in (0, 1]");
    bandwidth_factor_ *= factor;
}

void
Link::hashState(sim::Digest &d) const
{
    for (const Lane &l : lanes_) {
        d.add(l.engines.size());
        for (std::uint32_t i = 0; i < l.engines.size(); ++i) {
            d.add(l.offline[i]);
            d.addTime(l.engines[i].freeAt());
            // Engines free by now() all offset to 0, but pickEngine
            // still tells them apart by their raw busy-until times.
            for (std::uint32_t j = i + 1; j < l.engines.size(); ++j) {
                d.add(l.engines[i].freeAt() < l.engines[j].freeAt());
                d.add(l.engines[j].freeAt() < l.engines[i].freeAt());
            }
        }
    }
    d.add(std::bit_cast<std::uint64_t>(bandwidth_factor_));
}

const sim::Resource &
Link::engineAt(Direction dir, std::uint32_t index) const
{
    const Lane &l = lane(dir);
    if (index >= l.engines.size())
        sim::panic("Link: bad engine index");
    return l.engines[index];
}

}  // namespace uvmd::interconnect
