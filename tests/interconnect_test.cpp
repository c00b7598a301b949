/**
 * @file
 * Unit tests for the link model: the Figure-4 throughput curve shape,
 * per-direction engine overlap, and traffic accounting.
 */

#include <gtest/gtest.h>

#include "interconnect/link.hpp"

namespace uvmd::interconnect {
namespace {

TEST(Link, ThroughputRisesWithTransferSize)
{
    Link link(LinkSpec::pcie4());
    double prev = 0;
    for (sim::Bytes size = 4 * sim::kKiB; size <= 512 * sim::kMiB;
         size *= 4) {
        double gbps = link.effectiveGbps(size);
        EXPECT_GT(gbps, prev) << "size " << size;
        prev = gbps;
    }
    // Saturates near (but below) the peak.
    EXPECT_GT(prev, 0.95 * LinkSpec::pcie4().peak_gbps);
    EXPECT_LT(prev, LinkSpec::pcie4().peak_gbps);
}

TEST(Link, SmallTransfersArePunished)
{
    Link link(LinkSpec::pcie4());
    // A 4 KB transfer is dominated by setup latency: far below peak.
    EXPECT_LT(link.effectiveGbps(4 * sim::kKiB), 1.0);
    // A 2 MB transfer does much better — the Section 5.4 rationale.
    EXPECT_GT(link.effectiveGbps(2 * sim::kMiB),
              10 * link.effectiveGbps(4 * sim::kKiB));
}

TEST(Link, Pcie4BeatsPcie3)
{
    Link g3(LinkSpec::pcie3());
    Link g4(LinkSpec::pcie4());
    for (sim::Bytes size = 64 * sim::kKiB; size <= 64 * sim::kMiB;
         size *= 8) {
        EXPECT_GT(g4.effectiveGbps(size), g3.effectiveGbps(size));
    }
}

TEST(Link, DirectionsOverlap)
{
    Link link(LinkSpec::pcie4());
    sim::SimTime a =
        link.transfer(0, 64 * sim::kMiB, Direction::kHostToDevice);
    sim::SimTime b =
        link.transfer(0, 64 * sim::kMiB, Direction::kDeviceToHost);
    // Opposite directions use separate DMA engines.
    EXPECT_EQ(a, b);

    // The same direction serializes.
    sim::SimTime c =
        link.transfer(0, 64 * sim::kMiB, Direction::kHostToDevice);
    EXPECT_GT(c, a);
}

TEST(Link, TrafficAccounting)
{
    Link link(LinkSpec::pcie3());
    link.transfer(0, 1 * sim::kMiB, Direction::kHostToDevice);
    link.transfer(0, 2 * sim::kMiB, Direction::kHostToDevice);
    link.transfer(0, 4 * sim::kMiB, Direction::kDeviceToHost);
    EXPECT_EQ(link.bytesH2d(), 3 * sim::kMiB);
    EXPECT_EQ(link.bytesD2h(), 4 * sim::kMiB);
    EXPECT_EQ(link.totalBytes(), 7 * sim::kMiB);
    EXPECT_EQ(link.stats().get("transfers_h2d"), 2u);
    link.reset();
    EXPECT_EQ(link.totalBytes(), 0u);
    EXPECT_EQ(
        link.scheduler().engineAt(Direction::kHostToDevice, 0).freeAt(),
        0);
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
    EXPECT_GT(nv.effectiveGbps(2 * sim::kMiB),
              g4.effectiveGbps(2 * sim::kMiB));
}

}  // namespace
}  // namespace uvmd::interconnect
