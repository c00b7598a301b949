/**
 * @file
 * Fixed counter tables.
 *
 * Each subsystem declares its counters once, one line per counter, in
 * an X-macro list, and UVMD_STAT_TABLE turns the list into an enum,
 * a name array and a StatTable: a plain std::uint64_t array indexed by
 * that enum.  Hot paths bump a row directly (`stats[Id::x] += n`).
 * Benches and tests read rows back by name through a StatGroup view,
 * which also dumps every row as one JSON object.
 */

#ifndef UVMD_SIM_STATS_HPP
#define UVMD_SIM_STATS_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <span>
#include <string>
#include <string_view>

namespace uvmd::sim {

/** Read-only view of one counter table: row names and their values,
 *  in declaration order. */
class StatGroup
{
  public:
    StatGroup(std::span<const std::string_view> names,
              std::span<const std::uint64_t> values)
        : names_(names), values_(values)
    {}

    std::span<const std::string_view> names() const { return names_; }
    std::span<const std::uint64_t> values() const { return values_; }

    /** The value of row @p name; panics if the table has no such row. */
    std::uint64_t get(std::string_view name) const;

    /** Dump every row as one JSON object of integer members. */
    void dumpJson(std::ostream &os) const;

  private:
    std::span<const std::string_view> names_;
    std::span<const std::uint64_t> values_;
};

/** The counter table declared by UVMD_STAT_TABLE: one row per entry of
 *  @p Names, indexed by the enum @p Id generated from the same list. */
template <typename Id, const auto &Names>
class StatTable
{
  public:
    std::uint64_t &
    operator[](Id id)
    {
        return values_[static_cast<std::size_t>(id)];
    }

    std::uint64_t
    operator[](Id id) const
    {
        return values_[static_cast<std::size_t>(id)];
    }

    StatGroup group() const { return {Names, values_}; }

    void reset() { values_.fill(0); }

  private:
    std::array<std::uint64_t, std::size(Names)> values_{};
};

}  // namespace uvmd::sim

// X-macro entry expanders.  A list calls X(name) for a plain row and
// X2(base, suffix) for a dotted row named "base.suffix" (enum id
// base_suffix).
#define UVMD_STAT_ID(name) name,
#define UVMD_STAT_ID2(base, suffix) base##_##suffix,
#define UVMD_STAT_NAME(name) #name,
#define UVMD_STAT_NAME2(base, suffix) #base "." #suffix,

/**
 * Declare a counter table from the X-macro list @p LIST: `enum class
 * Id`, the row names `Id##Names` and `using Table = StatTable<...>`.
 */
#define UVMD_STAT_TABLE(Id, Table, LIST)                                 \
    enum class Id : std::size_t { LIST(UVMD_STAT_ID, UVMD_STAT_ID2) };   \
    inline constexpr std::string_view Id##Names[] = {                    \
        LIST(UVMD_STAT_NAME, UVMD_STAT_NAME2)};                          \
    using Table = ::uvmd::sim::StatTable<Id, Id##Names>

#endif  // UVMD_SIM_STATS_HPP
