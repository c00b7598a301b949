/**
 * @file
 * Host-device interconnect model: one Link per wire.
 *
 * A Link holds the wire's spec and N copy engines per direction
 * (config knob copy_engines_per_dir, default 1).  Work is issued as
 * *descriptors* — contiguous spans that each pay the per-transfer
 * setup — so a span costs
 *
 *     t = descriptors * setup + bytes / peak_bw
 *
 * and effective throughput rises with transfer size toward the peak:
 * the shape of the paper's Figure 4 (cudaMemPrefetchAsync on PCIe-3/4)
 * and the reason the discard implementation prefers whole 2 MB regions
 * (Section 5.4).  The two directions, and several engines of one
 * direction, overlap with each other and with GPU computation.
 *
 * The Link is mechanism only: it knows nothing about va_blocks,
 * causes, or discard state, and it models timing only: it counts
 * nothing.  uvm::TransferEngine sits above it, turns structured
 * transfer requests into descriptor issues and counts the traffic.
 */

#ifndef UVMD_INTERCONNECT_LINK_HPP
#define UVMD_INTERCONNECT_LINK_HPP

#include <array>
#include <cstdint>

#include "interconnect/link_spec.hpp"
#include "sim/arena.hpp"
#include "sim/digest.hpp"
#include "sim/resource.hpp"

namespace uvmd::interconnect {

class Link
{
  public:
    /**
     * @param spec            the link technology
     * @param engines_per_dir copy engines per direction (>= 1)
     */
    explicit Link(LinkSpec spec, int engines_per_dir = 1);

    const LinkSpec &spec() const { return spec_; }
    int enginesPerDir() const { return lanes_[0].engines.size(); }

    /** Pure cost of one undegraded single-descriptor transfer,
     *  without engine queueing. */
    sim::SimDuration
    transferCost(sim::Bytes bytes) const
    {
        return spec_.setup + sim::transferTime(bytes, spec_.peak_gbps);
    }

    /** Engine of @p dir that can start new work earliest (ties go to
     *  the lowest index, so one engine reproduces a single queue).
     *  Offline engines are never picked. */
    std::uint32_t pickEngine(Direction dir) const;

    /**
     * Reserve engine time for @p bytes moved as @p descriptors
     * contiguous spans on engine @p engine of @p dir, starting no
     * earlier than @p earliest:
     *
     *     duration = descriptors * setup + bytes / (peak_bw * factor)
     *
     * @p descriptors may be 0 when the span coalesces onto a
     * descriptor already issued on that engine (no setup cost).  A
     * re-sent failed descriptor is issued the same way.
     * @return completion time.
     */
    sim::SimTime issueOn(std::uint32_t engine, Direction dir,
                         sim::SimTime earliest, sim::Bytes bytes,
                         std::uint32_t descriptors);

    // ---- Fault handling (degradation and engine loss) ----

    /**
     * Take one copy engine offline at @p now.  Its queued backlog
     * (busy time scheduled past @p now) is rescheduled onto the
     * least-loaded surviving engine of the same direction, and the
     * engine is excluded from all future picks.
     * @return false (no change) when the index is out of range, the
     *         engine is already offline, or it is the last online
     *         engine of its direction.
     */
    bool setEngineOffline(Direction dir, std::uint32_t index,
                          sim::SimTime now);

    bool engineOffline(Direction dir, std::uint32_t index) const;

    /** Online engines in @p dir (>= 1 always). */
    int onlineEngines(Direction dir) const;

    /** Degrade effective bandwidth by @p factor in (0, 1]; factors
     *  from repeated events compound. */
    void scaleBandwidth(double factor);

    /** Current cumulative bandwidth factor (1.0 = undegraded). */
    double bandwidthFactor() const { return bandwidth_factor_; }

    const sim::Resource &engineAt(Direction dir,
                                  std::uint32_t index) const;

    /** Add the state that shapes future issues to @p d: each engine's
     *  busy-until offset, offline flag and, with several engines, the
     *  order pickEngine sees them in; the bandwidth factor. */
    void hashState(sim::Digest &d) const;

  private:
    /** The copy engines of one direction.  Engine timelines and
     *  offline flags stay inline for the common copy_engines_per_dir
     *  values, so constructing a link (and there is one per GPU per
     *  driver) never allocates for them. */
    struct Lane {
        sim::SmallVec<sim::Resource, 4> engines;
        sim::SmallVec<bool, 4> offline;
    };

    Lane &lane(Direction dir) { return lanes_[std::size_t(dir)]; }
    const Lane &lane(Direction dir) const
    {
        return lanes_[std::size_t(dir)];
    }

    LinkSpec spec_;
    std::array<Lane, 2> lanes_;
    double bandwidth_factor_ = 1.0;
};

}  // namespace uvmd::interconnect

#endif  // UVMD_INTERCONNECT_LINK_HPP
