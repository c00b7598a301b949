/**
 * @file
 * The whole-range summary (VaRange::state): the O(1) used-queue
 * splice that replaces a per-block recency walk, and the walk-free
 * discard and re-arm loops.
 *
 *  - IntrusiveList::spliceToBack equals n moveToBack calls over the
 *    same segment, at the head, at the tail, over the whole list and
 *    on a single element.
 *  - The summary is set by a whole-range walk, moved between its
 *    resident and discarded states by the fast paths, dropped by a
 *    sub-range touch, and a stale one is flagged by the
 *    range-summary-stale invariant.
 *  - Differential order test: one driver receives whole-range
 *    accesses, prefetches and discards (and so takes the fast paths);
 *    a second receives the same operations split per block, which
 *    never can.  Partial-range operations and memAdvise hints go to
 *    both.  After every operation the three page queues must list
 *    the same blocks in the same order; every block must have the
 *    same residency, mapping, preparation, discard and remote-access
 *    state; every counter that does not count calls or walk steps
 *    must match; both drivers must have reported the same observer
 *    events; and, when no bytes moved, the operation must have taken
 *    the same simulated time.
 *    A summary left stale by a missing clear splices the wrong
 *    segment or re-arms blocks that are not discarded, and shows up
 *    here as a reordered queue, a mask, count or event mismatch.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "mem/page_queues.hpp"
#include "sim/random.hpp"
#include "test_util.hpp"
#include "uvm/driver.hpp"

namespace uvmd::uvm {
namespace {

using mem::kBigPageSize;
using mem::kSmallPageSize;

// ------------------------------------------------------------------
// spliceToBack
// ------------------------------------------------------------------

struct Node {
    int id = 0;
    mem::QueueLink<Node> link;
};

using NodeList = mem::IntrusiveList<Node, &Node::link>;

std::vector<int>
order(const NodeList &list)
{
    std::vector<int> out;
    for (Node *n = list.front(); n; n = list.next(n))
        out.push_back(n->id);
    return out;
}

/** Backward walk: catches a broken prev chain the forward one hides. */
std::vector<int>
reverseOrder(const NodeList &list)
{
    std::vector<int> out;
    for (Node *n = list.back(); n; n = n->link.prev)
        out.push_back(n->id);
    return out;
}

/** Splice [first, last] of a 6-element list and compare with moving
 *  the same elements to the back one by one. */
void
expectSpliceMatchesMoves(int first, int last)
{
    constexpr int kN = 6;
    Node a[kN], b[kN];
    NodeList la(mem::QueueKind::kUsed), lb(mem::QueueKind::kUsed);
    for (int i = 0; i < kN; ++i) {
        a[i].id = b[i].id = i;
        la.pushBack(&a[i]);
        lb.pushBack(&b[i]);
    }
    la.spliceToBack(&a[first], &a[last]);
    for (int i = first; i <= last; ++i)
        lb.moveToBack(&b[i]);
    EXPECT_EQ(order(la), order(lb)) << "segment " << first << ".."
                                    << last;
    EXPECT_EQ(reverseOrder(la), reverseOrder(lb));
    EXPECT_EQ(la.size(), lb.size());
    EXPECT_EQ(la.front()->id, lb.front()->id);
    EXPECT_EQ(la.back()->id, lb.back()->id);
}

TEST(SpliceToBack, AtHeadMatchesMoves) { expectSpliceMatchesMoves(0, 2); }

TEST(SpliceToBack, AtTailMatchesMoves) { expectSpliceMatchesMoves(3, 5); }

TEST(SpliceToBack, WholeListMatchesMoves)
{
    expectSpliceMatchesMoves(0, 5);
}

TEST(SpliceToBack, SingleElementMatchesMoves)
{
    expectSpliceMatchesMoves(0, 0);
    expectSpliceMatchesMoves(2, 2);
    expectSpliceMatchesMoves(5, 5);
}

TEST(SpliceToBack, MiddleMatchesMoves) { expectSpliceMatchesMoves(1, 3); }

// ------------------------------------------------------------------
// The summary itself
// ------------------------------------------------------------------

class RangeSummaryTest : public ::testing::Test
{
  protected:
    RangeSummaryTest() : drv_(test::tinyConfig(8), test::testLink()) {}

    std::uint64_t walked() const
    {
        return drv_.counters().get("blocks_walked");
    }

    UvmDriver drv_;
    sim::SimTime t_ = 0;
};

TEST_F(RangeSummaryTest, WholeRangeWalkSetsItAndFastPathsWalkNothing)
{
    sim::Bytes size = 3 * kBigPageSize + 5 * kSmallPageSize;
    mem::VirtAddr a = drv_.allocManaged(size, "a");
    VaRange *range = drv_.vaSpace().rangeOf(a);
    EXPECT_EQ(range->state, RangeState::kNone);

    // The refill loop sets it without a walk.
    t_ = drv_.prefetch(a, size, ProcessorId::gpu(0), t_);
    EXPECT_TRUE(range->residentOn(0));
    EXPECT_EQ(walked(), 0u);

    // Both fast paths: no block visited, the recency charge intact.
    std::uint64_t recency = drv_.counters().get("prefetch_recency_only");
    sim::SimTime before = t_;
    t_ = drv_.prefetch(a, size, ProcessorId::gpu(0), t_);
    EXPECT_EQ(t_ - before, 4 * drv_.config().recency_touch_cost);
    EXPECT_EQ(drv_.counters().get("prefetch_recency_only"), recency + 4);
    t_ = drv_.gpuAccess(0, {{a, size, AccessKind::kRead}}, t_);
    EXPECT_EQ(walked(), 0u);
    EXPECT_TRUE(drv_.collectInvariantViolations().empty());
}

TEST_F(RangeSummaryTest, SubRangeTouchDropsIt)
{
    sim::Bytes size = 3 * kBigPageSize;
    mem::VirtAddr a = drv_.allocManaged(size, "a");
    VaRange *range = drv_.vaSpace().rangeOf(a);
    t_ = drv_.prefetch(a, size, ProcessorId::gpu(0), t_);
    ASSERT_TRUE(range->residentOn(0));

    // The middle block moves to the MRU end alone: the range is no
    // longer one segment of the used queue.
    t_ = drv_.gpuAccess(
        0, {{a + kBigPageSize, kBigPageSize, AccessKind::kRead}}, t_);
    EXPECT_EQ(range->state, RangeState::kNone);

    // The next whole-range walk restores both order and summary.
    t_ = drv_.gpuAccess(0, {{a, size, AccessKind::kRead}}, t_);
    EXPECT_TRUE(range->residentOn(0));
    EXPECT_TRUE(drv_.collectInvariantViolations().empty());
}

TEST_F(RangeSummaryTest, DiscardAndPartialResidencyDropIt)
{
    sim::Bytes size = 2 * kBigPageSize;
    mem::VirtAddr a = drv_.allocManaged(size, "a");
    VaRange *range = drv_.vaSpace().rangeOf(a);
    t_ = drv_.prefetch(a, size, ProcessorId::gpu(0), t_);
    t_ = drv_.discard(a, size, DiscardMode::kLazy, t_);
    EXPECT_FALSE(range->residentOn(0));

    t_ = drv_.prefetch(a, size, ProcessorId::gpu(0), t_);
    ASSERT_TRUE(range->residentOn(0));
    t_ = drv_.hostAccess(a, kSmallPageSize, AccessKind::kRead, t_);
    EXPECT_EQ(range->state, RangeState::kNone);
    EXPECT_TRUE(drv_.collectInvariantViolations().empty());
}

TEST_F(RangeSummaryTest, DiscardAndReArmWalkNothing)
{
    sim::Bytes size = 3 * kBigPageSize;
    mem::VirtAddr a = drv_.allocManaged(size, "a");
    VaRange *range = drv_.vaSpace().rangeOf(a);
    const UvmConfig &cfg = drv_.config();
    t_ = drv_.prefetch(a, size, ProcessorId::gpu(0), t_);
    ASSERT_EQ(walked(), 0u);

    // Eager: three unmaps, then three remaps; the chunks were zero-
    // filled by the first prefetch, so nothing is re-zeroed.
    sim::SimTime before = t_;
    t_ = drv_.discard(a, size, DiscardMode::kEager, t_);
    EXPECT_EQ(t_ - before, 3 * cfg.gpu_unmap_cost);
    EXPECT_EQ(range->state, RangeState::kDiscardedEager);
    EXPECT_EQ(drv_.queues().discardedQueue().size(), 3u);
    EXPECT_TRUE(drv_.collectInvariantViolations().empty());
    before = t_;
    t_ = drv_.prefetch(a, size, ProcessorId::gpu(0), t_);
    EXPECT_EQ(t_ - before, 3 * cfg.gpu_map_cost);
    EXPECT_TRUE(range->residentOn(0));
    EXPECT_EQ(drv_.counters().get("prefetch_rearmed_pages"),
              3 * mem::kPagesPerBlock);

    // Lazy: a software bitmap update per block each way.
    before = t_;
    t_ = drv_.discard(a, size, DiscardMode::kLazy, t_);
    EXPECT_EQ(t_ - before, 3 * cfg.block_op_cost);
    EXPECT_EQ(range->state, RangeState::kDiscardedLazy);
    EXPECT_TRUE(drv_.collectInvariantViolations().empty());
    before = t_;
    t_ = drv_.prefetch(a, size, ProcessorId::gpu(0), t_);
    EXPECT_EQ(t_ - before, 3 * cfg.block_op_cost);
    EXPECT_TRUE(range->residentOn(0));
    EXPECT_EQ(walked(), 0u);
    EXPECT_EQ(drv_.queues().usedQueue().size(), 3u);
    EXPECT_TRUE(drv_.collectInvariantViolations().empty());
}

TEST_F(RangeSummaryTest, SubRangeTouchDropsTheDiscardedState)
{
    sim::Bytes size = 2 * kBigPageSize;
    mem::VirtAddr a = drv_.allocManaged(size, "a");
    VaRange *range = drv_.vaSpace().rangeOf(a);
    t_ = drv_.prefetch(a, size, ProcessorId::gpu(0), t_);
    t_ = drv_.discard(a, size, DiscardMode::kEager, t_);
    ASSERT_EQ(range->state, RangeState::kDiscardedEager);

    // One faulting page re-arms (and remaps) its block.
    t_ = drv_.gpuAccess(0, {{a, kSmallPageSize, AccessKind::kWrite}}, t_);
    EXPECT_EQ(range->state, RangeState::kNone);
    EXPECT_TRUE(drv_.collectInvariantViolations().empty());

    // The re-arming walk restores the resident state.
    t_ = drv_.prefetch(a, size, ProcessorId::gpu(0), t_);
    ASSERT_TRUE(range->residentOn(0));
    t_ = drv_.discard(a, size, DiscardMode::kLazy, t_);
    ASSERT_EQ(range->state, RangeState::kDiscardedLazy);
    t_ = drv_.hostAccess(a + size - kSmallPageSize, kSmallPageSize,
                         AccessKind::kRead, t_);
    EXPECT_EQ(range->state, RangeState::kNone);
    EXPECT_TRUE(drv_.collectInvariantViolations().empty());
}

TEST_F(RangeSummaryTest, StaleSummaryIsAnInvariantViolation)
{
    mem::VirtAddr a = drv_.allocManaged(2 * kBigPageSize, "a");
    VaRange *range = drv_.vaSpace().rangeOf(a);
    range->state = RangeState::kResident;  // nothing is resident
    range->summary_gpu = 0;
    std::vector<InvariantViolation> v = drv_.collectInvariantViolations();
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0].code, "range-summary-stale");
    EXPECT_EQ(v[0].pages, mem::kPagesPerBlock);
}

TEST_F(RangeSummaryTest, StaleValidPageCountIsAnInvariantViolation)
{
    mem::VirtAddr a = drv_.allocManaged(kBigPageSize + kSmallPageSize, "a");
    EXPECT_TRUE(drv_.collectInvariantViolations().empty());
    // A count that disagrees with the mask ...
    VaBlock *tail = drv_.vaSpace().blockOf(a + kBigPageSize);
    ++tail->valid_pages;
    std::vector<InvariantViolation> v = drv_.collectInvariantViolations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].code, "valid-pages-stale");
    EXPECT_EQ(v[0].block, a + kBigPageSize);
    // ... and a mask that is not a prefix, even with a matching count.
    tail->valid = makeMask(1, 2);
    EXPECT_EQ(drv_.collectInvariantViolations().size(), 1u);
    tail->setValid(makeMask(0, 0));
    EXPECT_TRUE(drv_.collectInvariantViolations().empty());
}

TEST_F(RangeSummaryTest, StaleDiscardedSummaryIsAnInvariantViolation)
{
    sim::Bytes size = 2 * kBigPageSize;
    mem::VirtAddr a = drv_.allocManaged(size, "a");
    VaRange *range = drv_.vaSpace().rangeOf(a);
    auto stale = [&] {
        std::vector<InvariantViolation> v =
            drv_.collectInvariantViolations();
        EXPECT_EQ(v.size(), 2u);
        for (const InvariantViolation &e : v) {
            EXPECT_EQ(e.code, "range-summary-stale");
            EXPECT_EQ(e.pages, mem::kPagesPerBlock);
        }
    };
    // Resident and live: nothing is discarded or on the FIFO.
    t_ = drv_.prefetch(a, size, ProcessorId::gpu(0), t_);
    range->state = RangeState::kDiscardedEager;
    stale();
    // Lazily discarded, so still mapped: the eager claim is wrong ...
    range->state = RangeState::kResident;
    t_ = drv_.discard(a, size, DiscardMode::kLazy, t_);
    ASSERT_EQ(range->state, RangeState::kDiscardedLazy);
    range->state = RangeState::kDiscardedEager;
    stale();
    // ... and so is the claim after the pages lost their mappings.
    range->state = RangeState::kDiscardedLazy;
    t_ = drv_.prefetch(a, size, ProcessorId::gpu(0), t_);
    t_ = drv_.discard(a, size, DiscardMode::kEager, t_);
    ASSERT_EQ(range->state, RangeState::kDiscardedEager);
    range->state = RangeState::kDiscardedLazy;
    stale();
    // On the right GPU only.
    range->state = RangeState::kDiscardedEager;
    EXPECT_TRUE(drv_.collectInvariantViolations().empty());
    range->summary_gpu = 1;
    EXPECT_EQ(drv_.collectInvariantViolations().size(), 2u);
}

// ------------------------------------------------------------------
// Differential order test
// ------------------------------------------------------------------

using test::EventRecorder;

/** Both recorders saw the same events since the last call. */
void
expectSameEvents(EventRecorder &whole, EventRecorder &split,
                 const std::string &where)
{
    const auto &w = whole.events;
    const auto &s = split.events;
    std::size_t i = 0;
    while (i < w.size() && i < s.size() && w[i] == s[i])
        ++i;
    if (i < w.size() || i < s.size()) {
        auto show = [&](const std::vector<EventRecorder::Event> &v) {
            if (i >= v.size())
                return std::string("(end)");
            const EventRecorder::Event &e = v[i];
            return std::string(1, e.kind) + " block " +
                   std::to_string(e.base) + " pages " +
                   std::to_string(e.pages.count()) + " " +
                   std::to_string(e.a) + "," + std::to_string(e.b);
        };
        ADD_FAILURE() << where << ": event " << i << " differs: whole "
                      << show(w) << ", split " << show(s);
    }
    whole.events.clear();
    split.events.clear();
}

/** Everything the fast paths must leave exactly as the walk would. */
void
expectSameState(UvmDriver &whole, UvmDriver &split, int gpus,
                const std::string &where)
{
    for (GpuId g = 0; g < gpus; ++g) {
        auto bases = [](UvmDriver::Queues::List &q) {
            std::vector<mem::VirtAddr> out;
            for (VaBlock *b = q.front(); b; b = q.next(b))
                out.push_back(b->base);
            return out;
        };
        UvmDriver::Queues &qw = whole.queues(g);
        UvmDriver::Queues &qs = split.queues(g);
        ASSERT_EQ(bases(qw.usedQueue()), bases(qs.usedQueue()))
            << where << ": used queue of gpu" << g;
        ASSERT_EQ(bases(qw.unusedQueue()), bases(qs.unusedQueue()))
            << where << ": unused queue of gpu" << g;
        ASSERT_EQ(bases(qw.discardedQueue()), bases(qs.discardedQueue()))
            << where << ": discarded queue of gpu" << g;
    }
    std::vector<const VaBlock *> blocks;
    whole.vaSpace().forEachBlockAll(
        [&](VaBlock &b) { blocks.push_back(&b); });
    std::size_t i = 0;
    split.vaSpace().forEachBlockAll([&](VaBlock &s) {
        ASSERT_LT(i, blocks.size());
        const VaBlock &w = *blocks[i++];
        std::string at = where + " block " + w.describe();
        ASSERT_EQ(w.base, s.base) << at;
        EXPECT_EQ(w.owner_gpu, s.owner_gpu) << at;
        EXPECT_EQ(w.resident_cpu, s.resident_cpu) << at;
        EXPECT_EQ(w.resident_gpu, s.resident_gpu) << at;
        EXPECT_EQ(w.mapped_cpu, s.mapped_cpu) << at;
        EXPECT_EQ(w.mapped_gpu, s.mapped_gpu) << at;
        EXPECT_EQ(w.gpu_mapping_big, s.gpu_mapping_big) << at;
        EXPECT_EQ(w.remote_mapped, s.remote_mapped) << at;
        EXPECT_EQ(w.gpu_prepared, s.gpu_prepared) << at;
        EXPECT_EQ(w.discarded, s.discarded) << at;
        EXPECT_EQ(w.discarded_lazily, s.discarded_lazily) << at;
    });
    EXPECT_EQ(i, blocks.size()) << where;
    // Every counter but the ones that count calls or walk steps, which
    // splitting an operation per block changes by design.
    sim::StatGroup cw = whole.counters(), cs = split.counters();
    for (std::size_t r = 0; r < cw.names().size(); ++r) {
        std::string_view name = cw.names()[r];
        if (name == "blocks_walked" || name == "prefetch_calls" ||
            name.starts_with("discard_calls_"))
            continue;
        EXPECT_EQ(cw.values()[r], cs.values()[r])
            << where << ": uvm." << name;
    }
    std::vector<InvariantViolation> v = whole.collectInvariantViolations();
    ASSERT_TRUE(v.empty()) << where << ": " << v.front().code << ": "
                           << v.front().detail;
}

TEST(RangeSummaryDifferential, WholeRangeOpsMatchPerBlockOps)
{
    sim::setLogLevel(sim::LogLevel::kQuiet);
    std::uint64_t walked_whole = 0, walked_split = 0, injected = 0;
    for (std::uint64_t seed = 1; seed <= 240; ++seed) {
        sim::Rng rng(seed);
        // 3-6 chunks per GPU: a 4-block range may not fit, so a
        // whole-range walk can evict its own, already checked, blocks.
        UvmConfig cfg = test::tinyConfig(3 + rng.below(4));
        cfg.num_gpus = 1 + static_cast<int>(rng.below(2));
        // Off: every re-arm re-zeroes its chunk.
        cfg.track_fully_prepared = rng.below(4) != 0;
        // Some seeds move real payloads.  Some inject DMA and
        // allocation failures: both drivers issue the same transfers
        // and allocations in the same order, so they draw the same
        // failures.  Chunk retirement stays off, since it rolls once
        // per driver call and the split driver makes more calls.
        cfg.backed = seed % 4 == 0;
        if (seed % 3 == 0) {
            cfg.faults.enabled = true;
            cfg.faults.seed = seed;
            cfg.faults.dma_fault_rate = 0.05;
            cfg.faults.alloc_fail_rate = 0.1;
        }
        UvmDriver whole(cfg, test::testLink());
        UvmDriver split(cfg, test::testLink());
        EventRecorder ew, es;
        whole.setObserver(&ew);
        split.setObserver(&es);

        // 2-4 ranges of 2-4 blocks; some end mid-block.
        struct Span {
            mem::VirtAddr addr;
            sim::Bytes size;
        };
        std::vector<Span> ranges;
        std::size_t nranges = 2 + rng.below(3);
        for (std::size_t r = 0; r < nranges; ++r) {
            sim::Bytes size = (2 + rng.below(3)) * kBigPageSize;
            if (rng.below(2))
                size -= (1 + rng.below(511)) * kSmallPageSize;
            std::string name = "r";
            name += std::to_string(r);
            mem::VirtAddr a = whole.allocManaged(size, name);
            ASSERT_EQ(split.allocManaged(size, name), a);
            ranges.push_back({a, size});
        }
        // The per-block pieces of a range, in address order.
        auto blocksOf = [](const Span &r) {
            std::vector<Span> out;
            for (mem::VirtAddr b = r.addr; b < r.addr + r.size;
                 b += kBigPageSize) {
                out.push_back(
                    {b, std::min<sim::Bytes>(kBigPageSize,
                                             r.addr + r.size - b)});
            }
            return out;
        };
        // A page-granular strict sub-span of a range.
        auto subSpan = [&](const Span &r) {
            std::uint64_t pages = r.size / kSmallPageSize;
            std::uint64_t first = rng.below(pages);
            std::uint64_t n = 1 + rng.below(pages - first);
            if (first == 0 && n == pages)
                n -= 1 + rng.below(pages - 1);
            return Span{r.addr + first * kSmallPageSize,
                        n * kSmallPageSize};
        };
        auto randomKind = [&] {
            return static_cast<AccessKind>(rng.below(3));
        };
        auto randomMode = [&] {
            return rng.below(2) ? DiscardMode::kLazy : DiscardMode::kEager;
        };

        sim::SimTime tw = 0, ts = 0;
        // In backed seeds a write stores a fresh value at the start of
        // its span, in both drivers.
        std::uint64_t value = seed << 32;
        auto store = [&](mem::VirtAddr addr, AccessKind kind) {
            if (cfg.backed && writes(kind)) {
                ++value;
                whole.pokeValue(addr, value);
                split.pokeValue(addr, value);
            }
        };
        auto wholeAccess = [&](const Span &r, GpuId g, AccessKind kind) {
            tw = whole.gpuAccess(g, {{r.addr, r.size, kind}}, tw);
            std::vector<Access> per_block;
            for (const Span &b : blocksOf(r))
                per_block.push_back({b.addr, b.size, kind});
            ts = split.gpuAccess(g, per_block, ts);
            store(r.addr, kind);
        };
        auto wholePrefetch = [&](const Span &r, ProcessorId dst) {
            tw = whole.prefetch(r.addr, r.size, dst, tw);
            for (const Span &b : blocksOf(r))
                ts = split.prefetch(b.addr, b.size, dst, ts);
        };
        auto wholeDiscard = [&](const Span &r, DiscardMode mode) {
            tw = whole.discard(r.addr, r.size, mode, tw);
            for (const Span &b : blocksOf(r))
                ts = split.discard(b.addr, b.size, mode, ts);
        };
        auto moved = [](UvmDriver &d) {
            return d.totalTrafficBytes() + d.trafficD2d();
        };
        // Run one operation on both drivers and compare them.  Without
        // data movement the two must also take the same simulated time
        // (splitting a transfer per block may change its timing).
        auto step = [&](const std::string &where, auto &&op) {
            sim::SimTime tw0 = tw, ts0 = ts;
            sim::Bytes mw = moved(whole), ms = moved(split);
            op();
            if (moved(whole) == mw && moved(split) == ms) {
                EXPECT_EQ(tw - tw0, ts - ts0) << where << ": elapsed";
            }
            // (Unbacked drivers read zeros.)
            for (const Span &r : ranges) {
                for (const Span &b : blocksOf(r)) {
                    EXPECT_EQ(whole.peekValue<std::uint64_t>(b.addr),
                              split.peekValue<std::uint64_t>(b.addr))
                        << where << ": payload at " << b.addr;
                }
            }
            expectSameState(whole, split, cfg.num_gpus, where);
            expectSameEvents(ew, es, where);
        };

        for (int op = 0; op < 40; ++op) {
            const Span &r = ranges[rng.below(ranges.size())];
            GpuId g = static_cast<GpuId>(rng.below(cfg.num_gpus));
            std::string where = "seed " + std::to_string(seed) + " op " +
                                std::to_string(op);
            int pick = static_cast<int>(rng.below(13));
            if (pick >= 10) {
                // The DL trainer's cycle: discard a dead buffer, re-arm
                // it with a prefetch, then the next kernel uses it.
                step(where + " discard",
                     [&] { wholeDiscard(r, randomMode()); });
                step(where + " re-arm",
                     [&] { wholePrefetch(r, ProcessorId::gpu(g)); });
                step(where + " reuse",
                     [&] { wholeAccess(r, g, randomKind()); });
            } else {
                step(where, [&] {
                    switch (pick) {
                      case 0:
                      case 1:
                      case 2:  // whole-range kernel access
                        wholeAccess(r, g, randomKind());
                        break;
                      case 3:
                      case 4:  // whole-range prefetch, mostly to a GPU
                        wholePrefetch(r, rng.below(5)
                                             ? ProcessorId::gpu(g)
                                             : ProcessorId::cpu());
                        break;
                      case 5:  // whole-range discard
                        wholeDiscard(r, randomMode());
                        break;
                      case 6: {  // sub-range kernel access, to both
                        Span s = subSpan(r);
                        AccessKind kind = randomKind();
                        tw = whole.gpuAccess(g, {{s.addr, s.size, kind}},
                                             tw);
                        ts = split.gpuAccess(g, {{s.addr, s.size, kind}},
                                             ts);
                        store(s.addr, kind);
                        break;
                      }
                      case 7: {  // sub-range prefetch or discard, to both
                        Span s = subSpan(r);
                        if (rng.below(2)) {
                            tw = whole.prefetch(s.addr, s.size,
                                                ProcessorId::gpu(g), tw);
                            ts = split.prefetch(s.addr, s.size,
                                                ProcessorId::gpu(g), ts);
                        } else {
                            DiscardMode mode = randomMode();
                            tw = whole.discard(s.addr, s.size, mode, tw);
                            ts = split.discard(s.addr, s.size, mode, ts);
                        }
                        break;
                      }
                      case 8: {  // host access, whole or partial, to both
                        Span s = rng.below(2) ? r : subSpan(r);
                        AccessKind kind = randomKind();
                        tw = whole.hostAccess(s.addr, s.size, kind, tw);
                        ts = split.hostAccess(s.addr, s.size, kind, ts);
                        store(s.addr, kind);
                        break;
                      }
                      case 9: {  // hint, whole range or partial, to both
                        Span s = rng.below(2) ? r : subSpan(r);
                        auto advice = static_cast<MemAdvise>(rng.below(4));
                        whole.memAdvise(s.addr, s.size, advice, g);
                        split.memAdvise(s.addr, s.size, advice, g);
                        break;
                      }
                    }
                });
            }
            if (::testing::Test::HasFailure())
                break;
        }
        injected += whole.counters().get("fault_injected");
        walked_whole += whole.counters().get("blocks_walked");
        walked_split += split.counters().get("blocks_walked");
        whole.setObserver(nullptr);
        split.setObserver(nullptr);
        if (::testing::Test::HasFailure())
            break;
    }
    sim::setLogLevel(sim::LogLevel::kNormal);
    // The whole-range driver took fast paths often enough to matter;
    // the per-block driver never can (every range has 2+ blocks).
    EXPECT_LT(walked_whole * 10, walked_split * 9)
        << walked_whole << " vs " << walked_split;
    EXPECT_GT(injected, 0u);
}

// The oversubscribed refill: a whole-range GPU prefetch into a full
// GPU refills host-resident and unpopulated blocks in one loop over
// the range, evicting discarded and then used victims on the way, and
// leaves the same state, events and time as the same prefetch split
// per block.
TEST_F(RangeSummaryTest, OversubscribedRefillWalksNothing)
{
    UvmDriver split(drv_.config(), test::testLink());
    EventRecorder ew, es;
    drv_.setObserver(&ew);
    split.setObserver(&es);
    auto alloc = [&](sim::Bytes size, const char *name) {
        mem::VirtAddr a = drv_.allocManaged(size, name);
        EXPECT_EQ(split.allocManaged(size, name), a);
        return a;
    };
    // Fill all 8 chunks: 4 used, then 4 discarded.
    mem::VirtAddr used = alloc(4 * kBigPageSize, "used");
    mem::VirtAddr dead = alloc(4 * kBigPageSize, "dead");
    for (UvmDriver *d : {&drv_, &split}) {
        sim::SimTime t = d->prefetch(used, 4 * kBigPageSize,
                                     ProcessorId::gpu(0), 0);
        t = d->prefetch(dead, 4 * kBigPageSize, ProcessorId::gpu(0), t);
        d->discard(dead, 4 * kBigPageSize, DiscardMode::kEager, t);
    }
    // The target: three blocks live on the host, then three blocks
    // and a tail page never populated.
    sim::Bytes size = 6 * kBigPageSize + kSmallPageSize;
    mem::VirtAddr a = alloc(size, "target");
    for (UvmDriver *d : {&drv_, &split}) {
        d->hostAccess(a, 3 * kBigPageSize, AccessKind::kWrite, 0);
        for (int i = 0; i < 3; ++i)
            d->pokeValue<int>(a + i * kBigPageSize + 8, 100 + i);
        // A remote mapping of the first block, which the migration
        // must invalidate.
        d->memAdvise(a, kBigPageSize, MemAdvise::kSetAccessedBy, 0);
        d->gpuAccess(0, {{a, kBigPageSize, AccessKind::kRead}}, 0);
    }
    VaBlock *first = drv_.vaSpace().blockOf(a);
    ASSERT_EQ(first->remote_mapped, 1u);
    ew.events.clear();
    es.events.clear();
    ASSERT_EQ(drv_.queues().discardedQueue().size(), 4u);
    ASSERT_EQ(drv_.allocator().freeChunks(), 0u);

    std::uint64_t walked_before = walked();
    std::uint64_t h2d = drv_.trafficH2d();
    sim::SimTime tw = drv_.prefetch(a, size, ProcessorId::gpu(0), 0);
    sim::SimTime ts = 0;
    for (mem::VirtAddr b = a; b < a + size; b += kBigPageSize) {
        ts = split.prefetch(b, std::min<sim::Bytes>(kBigPageSize,
                                                    a + size - b),
                            ProcessorId::gpu(0), ts);
    }
    EXPECT_EQ(walked(), walked_before);
    EXPECT_EQ(tw, ts);
    expectSameState(drv_, split, 1, "refill");
    expectSameEvents(ew, es, "refill");

    VaRange *range = drv_.vaSpace().rangeOf(a);
    EXPECT_TRUE(range->residentOn(0));
    EXPECT_EQ(drv_.counters().get("evictions_discarded"), 4u);
    EXPECT_EQ(drv_.counters().get("evictions_used"), 3u);
    EXPECT_EQ(drv_.trafficH2d() - h2d, 3 * kBigPageSize);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(drv_.peekValue<int>(a + i * kBigPageSize + 8), 100 + i);
    EXPECT_EQ(first->remote_mapped, 0u);
    EXPECT_EQ(drv_.peekValue<int>(a + 4 * kBigPageSize), 0);
    drv_.setObserver(nullptr);
    split.setObserver(nullptr);
}

/** Records each step the driver's retry loops report. */
class StepRecorder : public sim::ProgressSink
{
  public:
    void
    onStep(const char *phase, sim::SimTime now) override
    {
        steps.emplace_back(phase, now);
    }

    std::vector<std::pair<std::string, sim::SimTime>> steps;
};

// The fault-driven refill: a whole-range kernel access into a full
// GPU, over host-resident and unpopulated blocks, evicting discarded
// and used victims on the way, walks no block and leaves the same
// state, events, retry-loop steps and time as the same kernel with
// its access split per block.
TEST_F(RangeSummaryTest, OversubscribedFaultFillWalksNothing)
{
    struct Case {
        const char *name;
        std::uint64_t chunks;  ///< GPU capacity
        bool victims;    ///< GPU filled with used, then discarded blocks
        bool exhausted;  ///< every chunk reserved: nothing to allocate
        bool fallback;   ///< oom_remote_fallback
        int blocks;      ///< blocks of the range; the last holds one page
        int prefer_cpu;  ///< index of a prefer_cpu block, or -1
        bool resident;   ///< the range ends residentOn(0)
    };
    const Case cases[] = {
        {"fits", 8, true, false, false, 6, -1, true},
        // Evicts its own first blocks: the summary must stay unset.
        {"larger than the GPU", 4, true, false, false, 6, -1, false},
        {"prefer_cpu block", 8, true, false, false, 6, 1, false},
        {"exhausted, remote fallback", 4, false, true, true, 4, -1,
         false},
        {"exhausted, error", 4, false, true, false, 4, -1, false},
    };
    constexpr int kHostBlocks = 3;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        UvmConfig cfg = test::tinyConfig(c.chunks);
        cfg.faults.enabled = c.exhausted;
        cfg.faults.oom_remote_fallback = c.fallback;
        UvmDriver whole(cfg, test::testLink());
        UvmDriver split(cfg, test::testLink());
        sim::Bytes size = (c.blocks - 1) * kBigPageSize + kSmallPageSize;
        mem::VirtAddr a = 0;
        sim::SimTime t0 = 0;
        for (UvmDriver *d : {&whole, &split}) {
            sim::SimTime t = 0;
            if (c.exhausted)
                d->reserveGpuMemory(0, c.chunks * kBigPageSize);
            if (c.victims) {
                sim::Bytes half = c.chunks / 2 * kBigPageSize;
                mem::VirtAddr used = d->allocManaged(half, "used");
                mem::VirtAddr dead = d->allocManaged(half, "dead");
                t = d->prefetch(used, half, ProcessorId::gpu(0), t);
                t = d->prefetch(dead, half, ProcessorId::gpu(0), t);
                t = d->discard(dead, half, DiscardMode::kEager, t);
            }
            // The first blocks live on the host, the rest were never
            // populated.
            a = d->allocManaged(size, "target");
            t = d->hostAccess(a, kHostBlocks * kBigPageSize,
                              AccessKind::kWrite, t);
            for (int i = 0; i < kHostBlocks; ++i)
                d->pokeValue<int>(a + i * kBigPageSize + 8, 100 + i);
            if (c.prefer_cpu >= 0)
                d->memAdvise(a + c.prefer_cpu * kBigPageSize,
                             kBigPageSize,
                             MemAdvise::kSetPreferredLocationCpu, 0);
            t0 = t;
        }
        ASSERT_EQ(whole.allocator().freeChunks(), 0u);

        EventRecorder ew, es;
        StepRecorder pw, ps;
        whole.setObserver(&ew);
        split.setObserver(&es);
        whole.setProgressSink(&pw);
        split.setProgressSink(&ps);
        std::vector<Access> per_block;
        for (mem::VirtAddr b = a; b < a + size; b += kBigPageSize)
            per_block.push_back(
                {b, std::min<sim::Bytes>(kBigPageSize, a + size - b),
                 AccessKind::kReadWrite});
        std::uint64_t walked_before = whole.counters().get("blocks_walked");
        sim::SimTime tw = t0, ts = t0;
        bool threw = false;
        try {
            tw = whole.gpuAccess(0, {{a, size, AccessKind::kReadWrite}},
                                 t0);
        } catch (const GpuOomError &) {
            threw = true;
        }
        if (threw) {
            EXPECT_THROW(split.gpuAccess(0, per_block, t0), GpuOomError);
        } else {
            ts = split.gpuAccess(0, per_block, t0);
        }
        EXPECT_EQ(threw, c.exhausted && !c.fallback);
        EXPECT_EQ(whole.counters().get("blocks_walked"), walked_before);
        EXPECT_EQ(tw, ts);
        EXPECT_EQ(pw.steps, ps.steps);
        expectSameState(whole, split, 1, c.name);
        expectSameEvents(ew, es, c.name);

        EXPECT_EQ(whole.vaSpace().rangeOf(a)->residentOn(0), c.resident);
        for (int i = 0; i < kHostBlocks; ++i)
            EXPECT_EQ(whole.peekValue<int>(a + i * kBigPageSize + 8),
                      100 + i);
        if (c.victims) {
            EXPECT_GT(whole.counters().get("evictions_discarded"), 0u);
            EXPECT_GT(whole.counters().get("evictions_used"), 0u);
        }
        if (c.prefer_cpu >= 0) {
            const VaBlock *b =
                whole.vaSpace().blockOf(a + c.prefer_cpu * kBigPageSize);
            EXPECT_FALSE(b->has_gpu_chunk);
            EXPECT_EQ(b->remote_mapped, 1u);
        }
        if (c.exhausted && c.fallback) {
            EXPECT_EQ(whole.counters().get("oom_fallbacks"),
                      static_cast<std::uint64_t>(c.blocks));
        }
        for (UvmDriver *d : {&whole, &split}) {
            d->setObserver(nullptr);
            d->setProgressSink(nullptr);
        }
    }
}

}  // namespace
}  // namespace uvmd::uvm
