/**
 * @file
 * Unit tests for the unified address space: range creation, block
 * decomposition, masks for sub-ranges, lookup, and teardown.
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "uvm/va_space.hpp"

namespace uvmd::uvm {
namespace {

TEST(PageMask, MakeMask)
{
    PageMask m = makeMask(0, 0);
    EXPECT_EQ(m.count(), 1u);
    EXPECT_TRUE(m.test(0));
    m = makeMask(10, 20);
    EXPECT_EQ(m.count(), 11u);
    EXPECT_TRUE(m.test(10));
    EXPECT_TRUE(m.test(20));
    EXPECT_FALSE(m.test(21));
    EXPECT_EQ(makeMask(0, 511).count(), 512u);
}

TEST(PageMask, MaskForRange)
{
    mem::VirtAddr base = 4 * mem::kBigPageSize;
    // A full-block span.
    EXPECT_EQ(maskForRange(base, base, mem::kBigPageSize).count(),
              512u);
    // One byte in the middle touches exactly one page.
    PageMask one = maskForRange(base, base + 5 * mem::kSmallPageSize + 7,
                                1);
    EXPECT_EQ(one.count(), 1u);
    EXPECT_TRUE(one.test(5));
    // A span starting before the block clips to the block.
    PageMask clipped = maskForRange(base, base - mem::kBigPageSize,
                                    2 * mem::kBigPageSize);
    EXPECT_EQ(clipped.count(), 512u);
    // Disjoint span yields nothing.
    EXPECT_TRUE(maskForRange(base, base + mem::kBigPageSize, 64)
                    .none());
}

TEST(VaSpace, CreatesAlignedRanges)
{
    VaSpace vs;
    mem::VirtAddr a = vs.createRange(3 * sim::kMiB, "a");
    mem::VirtAddr b = vs.createRange(1, "b");
    EXPECT_TRUE(mem::isAligned(a, mem::kBigPageSize));
    EXPECT_TRUE(mem::isAligned(b, mem::kBigPageSize));
    EXPECT_NE(a, b);
    // 3 MiB spans two blocks.
    EXPECT_EQ(vs.blockCount(), 3u);
}

TEST(VaSpace, GuardGapBetweenRanges)
{
    VaSpace vs;
    mem::VirtAddr a = vs.createRange(2 * sim::kMiB, "a");
    mem::VirtAddr b = vs.createRange(2 * sim::kMiB, "b");
    // At least one unmanaged guard block separates allocations.
    EXPECT_GE(b - a, 2 * mem::kBigPageSize);
    // The block right after range a is the guard: unmanaged.
    EXPECT_EQ(vs.blockOf(a + mem::kBigPageSize), nullptr);
}

TEST(VaSpace, BlockLookup)
{
    VaSpace vs;
    mem::VirtAddr a = vs.createRange(5 * sim::kMiB, "a");
    VaBlock *b0 = vs.blockOf(a);
    VaBlock *b1 = vs.blockOf(a + mem::kBigPageSize + 17);
    ASSERT_NE(b0, nullptr);
    ASSERT_NE(b1, nullptr);
    EXPECT_NE(b0, b1);
    EXPECT_EQ(b0->base, a);
    EXPECT_EQ(b1->base, a + mem::kBigPageSize);
    EXPECT_EQ(vs.blockOf(0x1234), nullptr);
}

TEST(VaSpace, ValidMaskOfTailBlock)
{
    VaSpace vs;
    // 5 MiB == 2.5 blocks: the tail block is half valid.
    mem::VirtAddr a = vs.createRange(5 * sim::kMiB, "a");
    VaBlock *tail = vs.blockOf(a + 2 * mem::kBigPageSize);
    ASSERT_NE(tail, nullptr);
    EXPECT_EQ(tail->valid.count(), 256u);
    VaBlock *head = vs.blockOf(a);
    EXPECT_EQ(head->valid.count(), 512u);
}

// Every block's valid mask is the prefix [0, valid_pages), whatever
// the range size, so pagesIn() and spanOf() may answer whole-block
// masks from the cached count; any other mask is still counted and
// scanned.
TEST(VaSpaceProperty, ValidIsAPrefixWithItsCachedCount)
{
    sim::Rng rng(7);
    VaSpace vs;
    for (int r = 0; r < 200; ++r) {
        // Mostly arbitrary byte sizes, sometimes whole pages or blocks.
        sim::Bytes size = rng.range(1, 5 * mem::kBigPageSize);
        if (rng.below(4) == 0)
            size = mem::alignUp(size, rng.below(2) ? mem::kBigPageSize
                                                   : mem::kSmallPageSize);
        VaRange *range = vs.rangeOf(vs.createRange(size, "r"));
        ASSERT_NE(range, nullptr);
        std::uint64_t pages = 0;
        for (const VaBlock *b : range->blocks) {
            std::string at = "size " + std::to_string(size) + " block " +
                             std::to_string(b->base - range->base);
            ASSERT_GE(b->valid_pages, 1u) << at;
            EXPECT_EQ(b->valid_pages, b->valid.count()) << at;
            EXPECT_EQ(b->valid, makeMask(0, b->valid_pages - 1)) << at;
            EXPECT_EQ(b->pagesIn(b->valid), b->valid_pages) << at;
            std::uint32_t first = rng.below(b->valid_pages);
            std::uint32_t last =
                first + rng.below(b->valid_pages - first);
            PageMask sub = makeMask(first, last);
            EXPECT_EQ(b->pagesIn(sub), last - first + 1) << at;
            EXPECT_EQ(b->pagesIn(PageMask{}), 0u) << at;
            // spanOf's whole-block answer is what the scans would give.
            VaBlock::Span whole = b->spanOf(b->valid);
            EXPECT_EQ(whole.pages, b->valid_pages) << at;
            EXPECT_EQ(whole.runs, countRuns(b->valid)) << at;
            EXPECT_EQ(whole.first, mem::firstSet(b->valid)) << at;
            EXPECT_EQ(whole.last, mem::lastSet(b->valid)) << at;
            VaBlock::Span part = b->spanOf(sub);
            EXPECT_EQ(part.pages, last - first + 1) << at;
            EXPECT_EQ(part.runs, 1u) << at;
            EXPECT_EQ(part.first, first) << at;
            EXPECT_EQ(part.last, last) << at;
            pages += b->valid_pages;
        }
        EXPECT_EQ(pages, range->pageCount()) << "size " << size;
    }
}

TEST(VaSpace, ForEachBlockVisitsInOrder)
{
    VaSpace vs;
    mem::VirtAddr a = vs.createRange(6 * sim::kMiB, "a");
    std::vector<mem::VirtAddr> seen;
    std::vector<std::size_t> counts;
    vs.forEachBlock(a + sim::kMiB, 4 * sim::kMiB,
                    [&](VaBlock &b, const PageMask &m) {
                        seen.push_back(b.base);
                        counts.push_back(m.count());
                    });
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], a);
    EXPECT_EQ(seen[1], a + mem::kBigPageSize);
    EXPECT_EQ(seen[2], a + 2 * mem::kBigPageSize);
    EXPECT_EQ(counts[0], 256u);  // second half of block 0
    EXPECT_EQ(counts[1], 512u);  // all of block 1
    EXPECT_EQ(counts[2], 256u);  // first half of block 2
}

TEST(VaSpace, ForEachBlockRejectsUnmanaged)
{
    VaSpace vs;
    vs.createRange(2 * sim::kMiB, "a");
    EXPECT_THROW(vs.forEachBlock(0x1000, 64, [](VaBlock &,
                                                const PageMask &) {}),
                 sim::FatalError);
}

TEST(VaSpace, DestroyRangeRemovesBlocks)
{
    VaSpace vs;
    mem::VirtAddr a = vs.createRange(4 * sim::kMiB, "a");
    EXPECT_EQ(vs.blockCount(), 2u);
    vs.destroyRange(a);
    EXPECT_EQ(vs.blockCount(), 0u);
    EXPECT_EQ(vs.blockOf(a), nullptr);
    EXPECT_THROW(vs.destroyRange(a), sim::FatalError);
}

TEST(VaSpace, RangeOf)
{
    VaSpace vs;
    mem::VirtAddr a = vs.createRange(4 * sim::kMiB, "mybuf");
    VaRange *r = vs.rangeOf(a + 3 * sim::kMiB);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->name, "mybuf");
    EXPECT_EQ(r->base, a);
    EXPECT_EQ(r->size, 4 * sim::kMiB);
}

TEST(VaSpace, ZeroSizeIsFatal)
{
    VaSpace vs;
    EXPECT_THROW(vs.createRange(0, "zero"), sim::FatalError);
}

// The dense index + last-block cache must agree with the hash map it
// replaced, over randomized create/destroy/lookup sequences that hit
// live blocks, destroyed ranges, guard gaps, addresses below the VA
// base, and addresses past the bump allocator's high-water mark.
TEST(VaSpaceProperty, DenseIndexMatchesHashMapReference)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        sim::Rng rng(seed);
        VaSpace vs;
        // Reference model: the pre-dense-index representation.
        std::unordered_map<std::uint64_t, mem::VirtAddr> ref_blocks;
        struct LiveRange {
            mem::VirtAddr base;
            std::vector<std::uint64_t> keys;
        };
        std::vector<LiveRange> live;
        std::vector<mem::VirtAddr> dead_bases;
        mem::VirtAddr high_water = mem::VirtAddr{1} << 40;
        std::uint64_t ref_count = 0;

        auto probe = [&](mem::VirtAddr addr) {
            VaBlock *got = vs.blockOf(addr);
            auto it = ref_blocks.find(addr / mem::kBigPageSize);
            if (it == ref_blocks.end()) {
                EXPECT_EQ(got, nullptr) << "seed " << seed;
            } else {
                ASSERT_NE(got, nullptr) << "seed " << seed;
                EXPECT_EQ(got->base, it->second) << "seed " << seed;
            }
        };

        for (int op = 0; op < 400; ++op) {
            double roll = rng.uniform();
            if (roll < 0.30 || live.empty()) {
                sim::Bytes size =
                    rng.range(1, 6 * mem::kBigPageSize);
                mem::VirtAddr base = vs.createRange(size, "r");
                LiveRange lr{base, {}};
                sim::Bytes span =
                    mem::alignUp(size, mem::kBigPageSize);
                for (mem::VirtAddr a = base; a < base + span;
                     a += mem::kBigPageSize) {
                    lr.keys.push_back(a / mem::kBigPageSize);
                    ref_blocks.emplace(a / mem::kBigPageSize, a);
                    ++ref_count;
                }
                high_water = base + span;
                live.push_back(std::move(lr));
            } else if (roll < 0.45) {
                std::size_t victim = rng.below(live.size());
                for (std::uint64_t key : live[victim].keys) {
                    ref_blocks.erase(key);
                    --ref_count;
                }
                dead_bases.push_back(live[victim].base);
                vs.destroyRange(live[victim].base);
                live.erase(live.begin() + victim);
            } else {
                // A burst of lookups so the cache sees same-block
                // streaks and cross-block jumps.
                for (int i = 0; i < 8; ++i) {
                    double where = rng.uniform();
                    mem::VirtAddr addr;
                    if (where < 0.55 && !live.empty()) {
                        const LiveRange &lr =
                            live[rng.below(live.size())];
                        addr = lr.keys[rng.below(lr.keys.size())] *
                                   mem::kBigPageSize +
                               rng.below(mem::kBigPageSize);
                    } else if (where < 0.75 && !dead_bases.empty()) {
                        addr = dead_bases[rng.below(
                                   dead_bases.size())] +
                               rng.below(2 * mem::kBigPageSize);
                    } else if (where < 0.9) {
                        // Past the high-water mark (beyond the dense
                        // index tail).
                        addr = high_water +
                               rng.below(16 * mem::kBigPageSize);
                    } else {
                        // Below the VA base: the index computation
                        // underflows and must still miss.
                        addr = rng.below(mem::VirtAddr{1} << 40);
                    }
                    probe(addr);
                }
            }
            ASSERT_EQ(vs.blockCount(), ref_count) << "seed " << seed;
        }
    }
}

}  // namespace
}  // namespace uvmd::uvm
