/**
 * @file
 * Unit tests for the link model: the Figure-4 throughput curve shape,
 * per-direction engine overlap, and the copy-engine scheduling of a
 * Link (per-engine reservation, least-loaded engine choice,
 * descriptor-granular setup charging, engine loss and re-sends).  The
 * Link counts no traffic; transfer_engine_test covers the ledger.
 */

#include <gtest/gtest.h>

#include "interconnect/link.hpp"

namespace uvmd::interconnect {
namespace {

constexpr sim::Bytes kChunk = 2 * sim::kMiB;

/** Effective throughput (GB/s) of one isolated transfer of @p bytes —
 *  the quantity Figure 4 plots. */
double
gbps(const Link &link, sim::Bytes bytes)
{
    return static_cast<double>(bytes) /
           static_cast<double>(link.transferCost(bytes));
}

/** Issue @p descriptors spans of @p bytes on the least-loaded engine of
 *  @p dir. */
sim::SimTime
issue(Link &link, sim::SimTime earliest, sim::Bytes bytes, Direction dir,
      std::uint32_t descriptors = 1)
{
    return link.issueOn(link.pickEngine(dir), dir, earliest, bytes,
                        descriptors);
}

sim::SimDuration
cost(const LinkSpec &spec, sim::Bytes bytes,
     std::uint32_t descriptors = 1)
{
    return descriptors * spec.setup +
           sim::transferTime(bytes, spec.peak_gbps);
}

TEST(Link, ThroughputRisesWithTransferSize)
{
    Link link(LinkSpec::pcie4());
    double prev = 0;
    for (sim::Bytes size = 4 * sim::kKiB; size <= 512 * sim::kMiB;
         size *= 4) {
        double g = gbps(link, size);
        EXPECT_GT(g, prev) << "size " << size;
        prev = g;
    }
    // Saturates near (but below) the peak.
    EXPECT_GT(prev, 0.95 * LinkSpec::pcie4().peak_gbps);
    EXPECT_LT(prev, LinkSpec::pcie4().peak_gbps);
}

TEST(Link, SmallTransfersArePunished)
{
    Link link(LinkSpec::pcie4());
    // A 4 KB transfer is dominated by setup latency: far below peak.
    EXPECT_LT(gbps(link, 4 * sim::kKiB), 1.0);
    // A 2 MB transfer does much better — the Section 5.4 rationale.
    EXPECT_GT(gbps(link, 2 * sim::kMiB), 10 * gbps(link, 4 * sim::kKiB));
}

TEST(Link, Pcie4BeatsPcie3)
{
    Link g3(LinkSpec::pcie3());
    Link g4(LinkSpec::pcie4());
    for (sim::Bytes size = 64 * sim::kKiB; size <= 64 * sim::kMiB;
         size *= 8) {
        EXPECT_GT(gbps(g4, size), gbps(g3, size));
    }
}

TEST(Link, DirectionsOverlap)
{
    Link link(LinkSpec::pcie4());
    sim::SimTime a =
        issue(link, 0, 64 * sim::kMiB, Direction::kHostToDevice);
    sim::SimTime b =
        issue(link, 0, 64 * sim::kMiB, Direction::kDeviceToHost);
    // Opposite directions use separate DMA engines.
    EXPECT_EQ(a, b);

    // The same direction serializes.
    sim::SimTime c =
        issue(link, 0, 64 * sim::kMiB, Direction::kHostToDevice);
    EXPECT_GT(c, a);
}

TEST(Link, TransferCostHasFloor)
{
    Link link(LinkSpec::pcie4());
    EXPECT_GE(link.transferCost(1), LinkSpec::pcie4().setup);
}

TEST(Link, NvlinkIsFasterStill)
{
    Link nv(LinkSpec::nvlink());
    Link g4(LinkSpec::pcie4());
    EXPECT_GT(gbps(nv, 2 * sim::kMiB), gbps(g4, 2 * sim::kMiB));
}

TEST(Link, OfflineEngineMovesExactlyItsBacklogToLeastLoadedSurvivor)
{
    const Direction h2d = Direction::kHostToDevice;
    Link link(LinkSpec::pcie4(), 3);
    sim::SimDuration c = cost(link.spec(), kChunk);
    link.issueOn(0, h2d, 0, kChunk, 1);
    link.issueOn(0, h2d, 0, kChunk, 1);  // engine 0 free at 2c
    link.issueOn(1, h2d, 0, kChunk, 1);  // engine 1 free at c
    link.issueOn(2, h2d, 0, 3 * kChunk, 1);  // engine 2 free last
    const sim::SimTime free2 = link.engineAt(h2d, 2).freeAt();
    const sim::SimDuration busy2 = link.engineAt(h2d, 2).busyTime();
    ASSERT_GT(free2, 2 * c);

    // At c/2 engine 0 still owes 1.5c: all of it, and nothing more,
    // lands on engine 1, the least-loaded survivor.
    const sim::SimTime now = c / 2;
    ASSERT_TRUE(link.setEngineOffline(h2d, 0, now));
    EXPECT_EQ(link.engineAt(h2d, 1).freeAt(), c + (2 * c - now));
    EXPECT_EQ(link.engineAt(h2d, 1).busyTime(), c + (2 * c - now));
    EXPECT_EQ(link.engineAt(h2d, 2).freeAt(), free2);
    EXPECT_EQ(link.engineAt(h2d, 2).busyTime(), busy2);
    EXPECT_EQ(link.onlineEngines(h2d), 2);
    EXPECT_EQ(link.pickEngine(h2d), 1u);

    // An idle engine has no backlog: taking it offline moves nothing.
    const sim::SimTime later = 10 * free2;
    const sim::SimTime free1 = link.engineAt(h2d, 1).freeAt();
    const sim::SimDuration busy1 = link.engineAt(h2d, 1).busyTime();
    ASSERT_TRUE(link.setEngineOffline(h2d, 2, later));
    EXPECT_EQ(link.engineAt(h2d, 1).freeAt(), free1);
    EXPECT_EQ(link.engineAt(h2d, 1).busyTime(), busy1);
    EXPECT_EQ(link.onlineEngines(h2d), 1);

    // The last online engine stays, and the other direction is
    // untouched.
    EXPECT_FALSE(link.setEngineOffline(h2d, 1, later));
    EXPECT_EQ(link.onlineEngines(Direction::kDeviceToHost), 3);
}

TEST(Link, ReissuePaysSetupAtDegradedBandwidth)
{
    const Direction h2d = Direction::kHostToDevice;
    Link link(LinkSpec::pcie4());
    link.scaleBandwidth(0.5);
    EXPECT_EQ(link.bandwidthFactor(), 0.5);
    const double degraded = link.spec().peak_gbps * 0.5;

    sim::SimTime t = link.issueOn(0, h2d, 0, kChunk, 1);
    EXPECT_EQ(t, link.spec().setup + sim::transferTime(kChunk, degraded));

    const sim::Bytes part = kChunk / 4;
    // A re-sent failed descriptor pays the setup again, at the
    // degraded bandwidth.
    sim::SimTime r = link.issueOn(0, h2d, t, part, 1);
    EXPECT_EQ(r - t,
              link.spec().setup + sim::transferTime(part, degraded));
    EXPECT_GT(r - t, link.transferCost(part));
    EXPECT_EQ(link.engineAt(h2d, 0).busyTime(), r);
}

// Copy-engine scheduling of one Link.

TEST(DmaScheduler, SingleEngineSerializesOneDirection)
{
    Link s(LinkSpec::pcie4());
    sim::SimDuration c = cost(s.spec(), kChunk);
    EXPECT_EQ(issue(s, 0, kChunk, Direction::kHostToDevice), c);
    // Same direction, one engine: the second issue queues behind the
    // first even though its earliest start is 0 — a plain serial
    // queue.
    EXPECT_EQ(issue(s, 0, kChunk, Direction::kHostToDevice), 2 * c);
}

TEST(DmaScheduler, DirectionsAreIndependent)
{
    Link s(LinkSpec::pcie4());
    sim::SimDuration c = cost(s.spec(), kChunk);
    EXPECT_EQ(issue(s, 0, kChunk, Direction::kHostToDevice), c);
    EXPECT_EQ(issue(s, 0, kChunk, Direction::kDeviceToHost), c);
}

TEST(DmaScheduler, MultipleEnginesOverlapOneDirection)
{
    Link s(LinkSpec::pcie4(), 2);
    sim::SimDuration c = cost(s.spec(), kChunk);
    EXPECT_EQ(issue(s, 0, kChunk, Direction::kHostToDevice), c);
    // The second issue lands on the idle second engine.
    EXPECT_EQ(issue(s, 0, kChunk, Direction::kHostToDevice), c);
    // The third queues behind the earliest-free engine.
    EXPECT_EQ(issue(s, 0, kChunk, Direction::kHostToDevice), 2 * c);
}

TEST(DmaScheduler, PickEngineTiesGoToLowestIndex)
{
    Link s(LinkSpec::pcie4(), 3);
    EXPECT_EQ(s.pickEngine(Direction::kHostToDevice), 0u);
    s.issueOn(0, Direction::kHostToDevice, 0, kChunk, 1);
    EXPECT_EQ(s.pickEngine(Direction::kHostToDevice), 1u);
    s.issueOn(1, Direction::kHostToDevice, 0, kChunk, 1);
    EXPECT_EQ(s.pickEngine(Direction::kHostToDevice), 2u);
}

TEST(DmaScheduler, SetupChargesPerDescriptor)
{
    Link s(LinkSpec::pcie3());
    // Three fragmented spans issued as one reservation: three setups,
    // one bandwidth term.
    EXPECT_EQ(s.issueOn(0, Direction::kDeviceToHost, 0, kChunk, 3),
              cost(s.spec(), kChunk, 3));
}

TEST(DmaScheduler, CoalescedDescriptorSkipsSetup)
{
    Link s(LinkSpec::pcie4());
    sim::SimTime t =
        s.issueOn(0, Direction::kHostToDevice, 0, kChunk, 1);
    // A span coalesced onto the previous descriptor pays bandwidth
    // only.
    EXPECT_EQ(s.issueOn(0, Direction::kHostToDevice, t, kChunk, 0),
              t + sim::transferTime(kChunk, s.spec().peak_gbps));
}

TEST(DmaScheduler, EngineBusyTimeAccumulates)
{
    Link s(LinkSpec::pcie4(), 2);
    issue(s, 0, kChunk, Direction::kHostToDevice);
    issue(s, 0, kChunk, Direction::kHostToDevice);
    EXPECT_EQ(s.engineAt(Direction::kHostToDevice, 0).busyTime(),
              cost(s.spec(), kChunk));
    EXPECT_EQ(s.engineAt(Direction::kHostToDevice, 1).busyTime(),
              cost(s.spec(), kChunk));
}

}  // namespace
}  // namespace uvmd::interconnect
