/**
 * @file
 * GPU page-zeroing cost model.
 *
 * The GPU copy engine zero-fills freshly allocated chunks (first touch
 * of never-populated memory, re-population of a reclaimed discarded
 * page, and the Section 5.7 "not fully prepared" case where a whole
 * 2 MB chunk must be re-zeroed).  Zeroing large contiguous chunks is
 * much faster per byte than small ones (Section 5.4), which this model
 * captures with a per-operation setup cost plus a bandwidth term.
 */

#ifndef UVMD_MEM_ZERO_ENGINE_HPP
#define UVMD_MEM_ZERO_ENGINE_HPP

#include "mem/page.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

#define UVMD_ZERO_STATS(X, X2)                                          \
    X(zero_ops)                                                         \
    X(zero_bytes)

namespace uvmd::mem {

UVMD_STAT_TABLE(ZeroStat, ZeroStats, UVMD_ZERO_STATS);

class ZeroEngine
{
  public:
    /**
     * @param bandwidth_gbps  sustained zero-fill bandwidth (GB/s)
     * @param setup           fixed per-operation cost
     */
    ZeroEngine(double bandwidth_gbps, sim::SimDuration setup)
        : bandwidth_gbps_(bandwidth_gbps), setup_(setup)
    {}

    /** Cost of zero-filling @p bytes of GPU memory, and account it. */
    sim::SimDuration
    zeroCost(sim::Bytes bytes)
    {
        ++stats_[ZeroStat::zero_ops];
        stats_[ZeroStat::zero_bytes] += bytes;
        return setup_ + sim::transferTime(bytes, bandwidth_gbps_);
    }

    sim::StatGroup stats() const { return stats_.group(); }

  private:
    double bandwidth_gbps_;
    sim::SimDuration setup_;
    ZeroStats stats_;
};

}  // namespace uvmd::mem

#endif  // UVMD_MEM_ZERO_ENGINE_HPP
