#include "sim/stats.hpp"

#include "sim/logging.hpp"

namespace uvmd::sim {

std::uint64_t
StatGroup::get(std::string_view name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return values_[i];
    panic("StatGroup: no counter named '" + std::string(name) + "'");
}

void
StatGroup::dumpJson(std::ostream &os) const
{
    // Names are C identifiers, possibly dotted, so need no escaping.
    os << "{";
    for (std::size_t i = 0; i < names_.size(); ++i)
        os << (i ? "," : "") << "\"" << names_[i] << "\":" << values_[i];
    os << "}";
}

}  // namespace uvmd::sim
