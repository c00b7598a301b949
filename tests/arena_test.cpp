/**
 * @file
 * Tests for the hot-path pooling primitives (sim/arena.hpp): the slab
 * Arena, the inline-storage SmallVec and the index-addressed Pool.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/arena.hpp"

namespace uvmd {
namespace {

struct Pod {
    std::uint64_t a = 0;
    std::uint32_t b = 0;
};

TEST(Arena, CreateDestroyTracksLiveCount)
{
    sim::Arena<Pod> arena;
    EXPECT_EQ(arena.liveCount(), 0u);
    EXPECT_EQ(arena.slabCount(), 0u);

    Pod *p = arena.create();
    EXPECT_EQ(p->a, 0u);
    EXPECT_EQ(arena.liveCount(), 1u);
    EXPECT_EQ(arena.slabCount(), 1u);

    arena.destroy(p);
    EXPECT_EQ(arena.liveCount(), 0u);
    EXPECT_EQ(arena.slabCount(), 1u);  // slabs are never released
}

TEST(Arena, FreedSlotIsRecycledBeforeNewSlabSpace)
{
    sim::Arena<Pod> arena;
    Pod *a = arena.create();
    Pod *b = arena.create();
    arena.destroy(a);
    Pod *c = arena.create();
    EXPECT_EQ(c, a);  // LIFO recycling of the freed slot
    EXPECT_NE(c, b);
    EXPECT_EQ(arena.liveCount(), 2u);
}

TEST(Arena, RecycledSlotIsFreshlyConstructed)
{
    sim::Arena<Pod> arena;
    Pod *a = arena.create();
    a->a = 0xdeadbeef;
    a->b = 77;
    arena.destroy(a);
    Pod *b = arena.create();
    ASSERT_EQ(b, a);
    EXPECT_EQ(b->a, 0u);  // value-initialized, not stale
    EXPECT_EQ(b->b, 0u);
}

TEST(Arena, GrowsBySlabGranularity)
{
    sim::Arena<Pod> arena;
    constexpr std::size_t kN = sim::Arena<Pod>::kSlabObjects;
    std::vector<Pod *> objs;
    for (std::size_t i = 0; i < kN; ++i)
        objs.push_back(arena.create());
    EXPECT_EQ(arena.slabCount(), 1u);
    objs.push_back(arena.create());
    EXPECT_EQ(arena.slabCount(), 2u);
    EXPECT_EQ(arena.liveCount(), kN + 1);
    EXPECT_EQ(arena.capacity(), kN + 1);

    // Steady-state churn at the high-water mark allocates no slabs.
    for (int round = 0; round < 100; ++round) {
        arena.destroy(objs.back());
        objs.pop_back();
        objs.push_back(arena.create());
    }
    EXPECT_EQ(arena.slabCount(), 2u);
}

TEST(Arena, CreateForwardsConstructorArguments)
{
    struct Init {
        int x;
        explicit Init(int v) : x(v) {}
    };
    sim::Arena<Init> arena;
    Init *p = arena.create(41);
    EXPECT_EQ(p->x, 41);
    arena.destroy(p);
}

TEST(Pool, ReferencesStayValidAcrossChunkGrowth)
{
    // Chunks of 4: 100 allocations add 25 chunks, and neither the
    // address nor the value of any earlier object moves.
    sim::Pool<Pod, 2> pool;
    std::uint32_t first = pool.alloc();
    Pod &ref = pool[first];
    ref.a = 0xfeed;
    std::vector<Pod *> addrs{&ref};
    for (std::uint32_t i = 1; i < 100; ++i) {
        std::uint32_t idx = pool.alloc();
        EXPECT_EQ(idx, i);  // indices are handed out densely
        pool[idx].a = i;
        addrs.push_back(&pool[idx]);
    }
    EXPECT_EQ(&pool[first], &ref);
    EXPECT_EQ(ref.a, 0xfeedu);
    for (std::uint32_t i = 1; i < 100; ++i) {
        EXPECT_EQ(&pool[i], addrs[i]);
        EXPECT_EQ(pool[i].a, i);
    }
}

TEST(Pool, FreedIndicesAreReusedFirst)
{
    sim::Pool<Pod, 2> pool;
    for (int i = 0; i < 6; ++i)
        pool.alloc();
    Pod *four = &pool[4];
    pool.release(1);
    pool.release(4);
    // Last freed first, in place; a fresh index only once none is
    // left.
    EXPECT_EQ(pool.alloc(), 4u);
    EXPECT_EQ(&pool[4], four);
    EXPECT_EQ(pool.alloc(), 1u);
    EXPECT_EQ(pool.alloc(), 6u);
}

TEST(Pool, HoldsNonTrivialObjects)
{
    // A released object is not destroyed: its owner resets it, and a
    // heap buffer it spilled into is kept for the next user and freed
    // with the pool.
    sim::Pool<sim::SmallVec<std::string, 1>, 1> pool;
    std::uint32_t i = pool.alloc();
    pool[i].push_back("a");
    pool[i].push_back("b");
    EXPECT_FALSE(pool[i].inlineStorage());
    pool[i].clear();
    pool.release(i);
    std::uint32_t j = pool.alloc();
    ASSERT_EQ(j, i);
    EXPECT_TRUE(pool[j].empty());
    pool[j].push_back("c");
    EXPECT_EQ(pool[j][0], "c");
}

TEST(SmallVec, StaysInlineUpToN)
{
    sim::SmallVec<int, 4> v;
    EXPECT_TRUE(v.empty());
    EXPECT_TRUE(v.inlineStorage());
    for (int i = 0; i < 4; ++i)
        v.push_back(i);
    EXPECT_EQ(v.size(), 4u);
    EXPECT_TRUE(v.inlineStorage());
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVec, SpillsToHeapPastNAndKeepsValues)
{
    sim::SmallVec<int, 4> v;
    for (int i = 0; i < 9; ++i)
        v.push_back(i * 10);
    EXPECT_EQ(v.size(), 9u);
    EXPECT_FALSE(v.inlineStorage());
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(v[static_cast<std::size_t>(i)], i * 10);
    EXPECT_EQ(v.back(), 80);
}

TEST(SmallVec, WorksWithNonTrivialElements)
{
    sim::SmallVec<std::string, 2> v;
    v.push_back("alpha");
    v.push_back("beta");
    v.push_back("a rather long string that defeats SSO storage......");
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "alpha");
    EXPECT_EQ(v[2],
              "a rather long string that defeats SSO storage......");
    v.pop_back();
    EXPECT_EQ(v.size(), 2u);
    v.clear();
    EXPECT_TRUE(v.empty());
}

TEST(SmallVec, AssignAndResize)
{
    sim::SmallVec<int, 3> v;
    v.assign(5, 7);
    EXPECT_EQ(v.size(), 5u);
    for (const int x : v)
        EXPECT_EQ(x, 7);
    v.resize(2);
    EXPECT_EQ(v.size(), 2u);
    v.resize(4, 9);
    EXPECT_EQ(v.size(), 4u);
    EXPECT_EQ(v[1], 7);
    EXPECT_EQ(v[3], 9);
}

TEST(SmallVec, CopyAndMoveSemantics)
{
    sim::SmallVec<std::string, 2> a;
    a.push_back("one");
    a.push_back("two");
    a.push_back("three");  // spilled

    sim::SmallVec<std::string, 2> b = a;
    EXPECT_EQ(b.size(), 3u);
    EXPECT_EQ(b[2], "three");
    EXPECT_EQ(a.size(), 3u);  // copy leaves the source intact

    sim::SmallVec<std::string, 2> c = std::move(a);
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c[0], "one");
    EXPECT_EQ(a.size(), 0u);  // heap buffer was stolen

    sim::SmallVec<std::string, 2> d;
    d.push_back("x");
    d = b;
    EXPECT_EQ(d.size(), 3u);
    EXPECT_EQ(d[1], "two");

    sim::SmallVec<std::string, 2> e;
    e = std::move(c);
    EXPECT_EQ(e.size(), 3u);
    EXPECT_EQ(e[2], "three");
}

TEST(SmallVec, InlineMoveLeavesSourceEmpty)
{
    sim::SmallVec<std::string, 4> a;
    a.push_back("inline-only");
    sim::SmallVec<std::string, 4> b = std::move(a);
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0], "inline-only");
    EXPECT_EQ(a.size(), 0u);
    EXPECT_TRUE(a.inlineStorage());
}

}  // namespace
}  // namespace uvmd
