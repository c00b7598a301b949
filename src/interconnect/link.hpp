/**
 * @file
 * Host-device interconnect model.
 *
 * A Link turns (bytes, direction) into a transfer duration using a
 * fixed per-transfer setup latency plus a peak-bandwidth term:
 *
 *     t(bytes) = setup + bytes / peak_bw
 *
 * so effective throughput bytes/t(bytes) rises with transfer size and
 * saturates at the peak — the shape of the paper's Figure 4
 * (cudaMemPrefetchAsync throughput on PCIe-3/4), and the reason the
 * discard implementation prefers whole 2 MB regions (Section 5.4).
 *
 * The engine timelines themselves live in the DmaScheduler: N copy
 * engines per direction (config knob copy_engines_per_dir, default 1),
 * so host-to-device and device-to-host traffic — and, with more than
 * one engine, independent streams in the same direction — overlap
 * with each other and with GPU computation.  The Link front-end keeps
 * the spec, the per-direction traffic totals that feed every "PCIe
 * traffic" table in the evaluation, and the single-descriptor
 * transfer() convenience used by raw memcpys and remote accesses.
 */

#ifndef UVMD_INTERCONNECT_LINK_HPP
#define UVMD_INTERCONNECT_LINK_HPP

#include <string>

#include "interconnect/dma_scheduler.hpp"
#include "interconnect/link_spec.hpp"
#include "sim/resource.hpp"
#include "sim/stats.hpp"

#define UVMD_LINK_STATS(X, X2)                                          \
    X(bytes_h2d)                                                        \
    X(transfers_h2d)                                                    \
    X(bytes_d2h)                                                        \
    X(transfers_d2h)

namespace uvmd::interconnect {

UVMD_STAT_TABLE(LinkStat, LinkStats, UVMD_LINK_STATS);

class Link
{
  public:
    explicit Link(LinkSpec spec, int engines_per_dir = 1)
        : spec_(std::move(spec)), sched_(spec_, engines_per_dir)
    {}

    const LinkSpec &spec() const { return spec_; }

    /** The copy-engine scheduler owning this link's DMA timelines. */
    DmaScheduler &scheduler() { return sched_; }
    const DmaScheduler &scheduler() const { return sched_; }

    /** Pure cost of one transfer, without engine queueing. */
    sim::SimDuration
    transferCost(sim::Bytes bytes) const
    {
        return spec_.setup + sim::transferTime(bytes, spec_.peak_gbps);
    }

    /**
     * Effective throughput (GB/s) of one isolated transfer of
     * @p bytes — the quantity Figure 4 plots.
     */
    double
    effectiveGbps(sim::Bytes bytes) const
    {
        sim::SimDuration t = transferCost(bytes);
        return static_cast<double>(bytes) / static_cast<double>(t);
    }

    /**
     * Reserve copy-engine time for one single-descriptor transfer
     * starting no earlier than @p earliest and account the traffic.
     * @return completion time.
     */
    sim::SimTime
    transfer(sim::SimTime earliest, sim::Bytes bytes, Direction dir)
    {
        accountTraffic(bytes, dir);
        return sched_.issue(earliest, bytes, /*new_descriptors=*/1,
                            dir);
    }

    /** Account traffic without reserving time (synchronous paths). */
    void
    accountTraffic(sim::Bytes bytes, Direction dir)
    {
        if (dir == Direction::kHostToDevice) {
            stats_[LinkStat::bytes_h2d] += bytes;
            ++stats_[LinkStat::transfers_h2d];
        } else {
            stats_[LinkStat::bytes_d2h] += bytes;
            ++stats_[LinkStat::transfers_d2h];
        }
    }

    /** First copy engine of @p dir (compatibility accessor; use
     *  scheduler() for multi-engine work). */
    sim::Resource &
    engine(Direction dir)
    {
        return sched_.engineAt(dir, 0);
    }

    sim::Bytes totalBytes() const
    {
        return bytesH2d() + bytesD2h();
    }
    sim::Bytes bytesH2d() const { return stats_[LinkStat::bytes_h2d]; }
    sim::Bytes bytesD2h() const { return stats_[LinkStat::bytes_d2h]; }

    sim::StatGroup stats() const { return stats_.group(); }

    void
    reset()
    {
        sched_.reset();
        stats_.reset();
    }

  private:
    LinkSpec spec_;
    DmaScheduler sched_;
    LinkStats stats_;
};

}  // namespace uvmd::interconnect

#endif  // UVMD_INTERCONNECT_LINK_HPP
