/**
 * @file
 * Unit tests for the memory substrate: alignment helpers, the chunk
 * allocator (capacity, reservation, exhaustion), the intrusive page
 * queues, the backing store's copy-slot semantics (including
 * copy-on-write aliasing of pages and of private 64-byte lines,
 * checked against a deep-copy reference), and the zero engine cost
 * model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "mem/backing_store.hpp"
#include "mem/chunk_allocator.hpp"
#include "mem/page.hpp"
#include "mem/page_queues.hpp"
#include "mem/zero_engine.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"

namespace uvmd::mem {
namespace {

TEST(Page, AlignmentHelpers)
{
    EXPECT_EQ(alignDown(kBigPageSize + 5, kBigPageSize), kBigPageSize);
    EXPECT_EQ(alignUp(kBigPageSize + 5, kBigPageSize),
              2 * kBigPageSize);
    EXPECT_EQ(alignUp(kBigPageSize, kBigPageSize), kBigPageSize);
    EXPECT_TRUE(isAligned(4 * kBigPageSize, kBigPageSize));
    EXPECT_FALSE(isAligned(kSmallPageSize, kBigPageSize));
    EXPECT_EQ(kPagesPerBlock, 512u);
}

TEST(Page, PageIndexing)
{
    VirtAddr base = 10 * kBigPageSize;
    EXPECT_EQ(pageIndexInBlock(base), 0u);
    EXPECT_EQ(pageIndexInBlock(base + kSmallPageSize), 1u);
    EXPECT_EQ(pageIndexInBlock(base + kBigPageSize - 1), 511u);
    EXPECT_EQ(smallPageNumber(kSmallPageSize * 7 + 100), 7u);
}

TEST(ChunkAllocator, CapacityRoundsDownToChunks)
{
    ChunkAllocator a(5 * kBigPageSize + kSmallPageSize);
    EXPECT_EQ(a.totalChunks(), 5u);
    EXPECT_EQ(a.freeChunks(), 5u);
}

TEST(ChunkAllocator, AllocateUntilExhausted)
{
    ChunkAllocator a(3 * kBigPageSize);
    EXPECT_TRUE(a.tryAllocChunk());
    EXPECT_TRUE(a.tryAllocChunk());
    EXPECT_TRUE(a.tryAllocChunk());
    EXPECT_FALSE(a.tryAllocChunk());
    a.freeChunk();
    EXPECT_TRUE(a.tryAllocChunk());
    EXPECT_EQ(a.allocatedChunks(), 3u);
}

TEST(ChunkAllocator, ReservationShrinksUsable)
{
    ChunkAllocator a(10 * kBigPageSize);
    a.reserve(4 * kBigPageSize + 1);  // rounds up to 5 chunks
    EXPECT_EQ(a.reservedChunks(), 5u);
    EXPECT_EQ(a.freeChunks(), 5u);
    EXPECT_EQ(a.usableBytes(), 5 * kBigPageSize);
    a.unreserve(4 * kBigPageSize + 1);
    EXPECT_EQ(a.freeChunks(), 10u);
}

TEST(ChunkAllocator, OverReservationIsFatal)
{
    ChunkAllocator a(2 * kBigPageSize);
    EXPECT_THROW(a.reserve(3 * kBigPageSize), sim::FatalError);
}

TEST(ChunkAllocator, TinyCapacityIsFatal)
{
    EXPECT_THROW(ChunkAllocator{kSmallPageSize}, sim::FatalError);
}

// A minimal queueable element for list tests.
struct Elem {
    int id;
    QueueLink<Elem> link;
};

using List = IntrusiveList<Elem, &Elem::link>;
using Queues = GpuPageQueues<Elem, &Elem::link>;

TEST(IntrusiveList, FifoOrder)
{
    List list(QueueKind::kUnused);
    Elem a{1, {}}, b{2, {}}, c{3, {}};
    list.pushBack(&a);
    list.pushBack(&b);
    list.pushBack(&c);
    EXPECT_EQ(list.size(), 3u);
    EXPECT_EQ(list.popFront()->id, 1);
    EXPECT_EQ(list.popFront()->id, 2);
    EXPECT_EQ(list.popFront()->id, 3);
    EXPECT_EQ(list.popFront(), nullptr);
}

TEST(IntrusiveList, RemoveFromMiddle)
{
    List list(QueueKind::kUsed);
    Elem a{1, {}}, b{2, {}}, c{3, {}};
    list.pushBack(&a);
    list.pushBack(&b);
    list.pushBack(&c);
    list.remove(&b);
    EXPECT_EQ(list.size(), 2u);
    EXPECT_EQ(b.link.on, QueueKind::kNone);
    EXPECT_EQ(list.popFront()->id, 1);
    EXPECT_EQ(list.popFront()->id, 3);
}

TEST(IntrusiveList, MoveToBackImplementsLruTouch)
{
    List list(QueueKind::kUsed);
    Elem a{1, {}}, b{2, {}}, c{3, {}};
    list.pushBack(&a);
    list.pushBack(&b);
    list.pushBack(&c);
    list.moveToBack(&a);  // a becomes MRU
    EXPECT_EQ(list.popFront()->id, 2);
    EXPECT_EQ(list.popFront()->id, 3);
    EXPECT_EQ(list.popFront()->id, 1);
}

TEST(GpuPageQueues, PlaceOnMovesBetweenQueues)
{
    Queues q;
    Elem a{1, {}};
    q.placeOn(&a, QueueKind::kUsed);
    EXPECT_EQ(q.membership(&a), QueueKind::kUsed);
    q.placeOn(&a, QueueKind::kDiscarded);
    EXPECT_EQ(q.membership(&a), QueueKind::kDiscarded);
    EXPECT_EQ(q.usedQueue().size(), 0u);
    EXPECT_EQ(q.discardedQueue().size(), 1u);
    q.placeOn(&a, QueueKind::kNone);
    EXPECT_EQ(q.membership(&a), QueueKind::kNone);
}

TEST(BackingStore, DisabledStoreReadsZeros)
{
    BackingStore bs(false);
    std::uint32_t v = 0xdeadbeef;
    bs.write(0x1000, &v, sizeof(v), CopySlot::kHost);
    std::uint32_t out = 1;
    bs.read(0x1000, &out, sizeof(out), CopySlot::kHost);
    EXPECT_EQ(out, 0u);
    EXPECT_EQ(bs.materializedPages(), 0u);
}

TEST(BackingStore, SlotsAreIndependent)
{
    BackingStore bs(true);
    std::uint32_t h = 11, d = 22;
    bs.write(0x4000, &h, sizeof(h), CopySlot::kHost);
    bs.write(0x4000, &d, sizeof(d), CopySlot::kDevice);
    EXPECT_EQ(h, 11u);
    std::uint32_t out = 0;
    bs.read(0x4000, &out, sizeof(out), CopySlot::kHost);
    EXPECT_EQ(out, 11u);
    bs.read(0x4000, &out, sizeof(out), CopySlot::kDevice);
    EXPECT_EQ(out, 22u);
}

TEST(BackingStore, CopyAndDrop)
{
    BackingStore bs(true);
    std::uint64_t v = 77;
    bs.write(0x8000, &v, sizeof(v), CopySlot::kHost);
    bs.copyPage(0x8000, CopySlot::kHost, CopySlot::kDevice);
    std::uint64_t out = 0;
    bs.read(0x8000, &out, sizeof(out), CopySlot::kDevice);
    EXPECT_EQ(out, 77u);
    bs.dropPage(0x8000, CopySlot::kHost);
    EXPECT_FALSE(bs.hasPage(0x8000, CopySlot::kHost));
    EXPECT_TRUE(bs.hasPage(0x8000, CopySlot::kDevice));
    bs.read(0x8000, &out, sizeof(out), CopySlot::kHost);
    EXPECT_EQ(out, 0u);  // absent slot reads zeros
}

TEST(BackingStore, CopyFromAbsentSourceZeroes)
{
    BackingStore bs(true);
    std::uint64_t v = 5;
    bs.write(0x2000, &v, sizeof(v), CopySlot::kDevice);
    bs.copyPage(0x2000, CopySlot::kHost, CopySlot::kDevice);
    std::uint64_t out = 99;
    bs.read(0x2000, &out, sizeof(out), CopySlot::kDevice);
    EXPECT_EQ(out, 0u);
}

TEST(BackingStore, ZeroPage)
{
    BackingStore bs(true);
    std::uint64_t v = 123;
    bs.write(0x3000, &v, sizeof(v), CopySlot::kHost);
    bs.zeroPage(0x3000, CopySlot::kHost);
    std::uint64_t out = 1;
    bs.read(0x3000, &out, sizeof(out), CopySlot::kHost);
    EXPECT_EQ(out, 0u);
}

TEST(BackingStoreDeathTest, WriteAcrossPagesPanics)
{
    BackingStore bs(true);
    std::vector<std::uint8_t> data(kBigPageSize + 1, 0xab);
    // Ends on neighbouring pages.
    EXPECT_DEATH(bs.write(kSmallPageSize - 1, data.data(), 2,
                          CopySlot::kHost),
                 "crosses a 4KB page boundary");
    // Ends exactly one 2 MB block apart: same page index in their
    // blocks, different pages.
    EXPECT_DEATH(bs.write(kSmallPageSize, data.data(), data.size(),
                          CopySlot::kHost),
                 "crosses a 4KB page boundary");
}

TEST(BackingStore, CopyThenWriteLeavesTheOtherSlot)
{
    for (CopySlot written : {CopySlot::kHost, CopySlot::kDevice}) {
        BackingStore bs(true);
        std::uint64_t v = 41, w = 42, out = 0;
        bs.write(0x5000, &v, sizeof(v), CopySlot::kHost);
        bs.copyPage(0x5000, CopySlot::kHost, CopySlot::kDevice);
        bs.write(0x5000, &w, sizeof(w), written);
        CopySlot other = written == CopySlot::kHost ? CopySlot::kDevice
                                                    : CopySlot::kHost;
        bs.read(0x5000, &out, sizeof(out), written);
        EXPECT_EQ(out, 42u);
        bs.read(0x5000, &out, sizeof(out), other);
        EXPECT_EQ(out, 41u);
    }
}

TEST(BackingStore, WriteToAZeroedPageLeavesOtherZeroedPages)
{
    BackingStore bs(true);
    bs.zeroPage(0x1000, CopySlot::kHost);
    bs.zeroPage(0x2000, CopySlot::kDevice);
    bs.copyPage(0x9000, CopySlot::kHost, CopySlot::kDevice);  // absent
    std::uint32_t v = 7;
    bs.write(0x1000, &v, sizeof(v), CopySlot::kHost);
    bs.zeroPage(0x3000, CopySlot::kHost);

    std::uint32_t out = 0;
    bs.read(0x1000, &out, sizeof(out), CopySlot::kHost);
    EXPECT_EQ(out, 7u);
    std::array<std::uint8_t, kSmallPageSize> page{};
    std::array<std::uint8_t, kSmallPageSize> zeros{};
    for (VirtAddr va : {0x2000, 0x9000}) {
        bs.read(va, page.data(), page.size(), CopySlot::kDevice);
        EXPECT_EQ(page, zeros);
    }
    bs.read(0x3000, page.data(), page.size(), CopySlot::kHost);
    EXPECT_EQ(page, zeros);
}

TEST(BackingStore, DroppingASharingSlotKeepsTheOther)
{
    BackingStore bs(true);
    std::uint64_t v = 99, out = 0;
    bs.write(0x6000, &v, sizeof(v), CopySlot::kDevice);
    bs.copyPage(0x6000, CopySlot::kDevice, CopySlot::kHost);
    bs.dropPage(0x6000, CopySlot::kDevice);
    EXPECT_FALSE(bs.hasPage(0x6000, CopySlot::kDevice));
    bs.read(0x6000, &out, sizeof(out), CopySlot::kHost);
    EXPECT_EQ(out, 99u);
    // The survivor is now unshared; writing it must not resurrect the
    // dropped slot.
    std::uint64_t w = 100;
    bs.write(0x6000, &w, sizeof(w), CopySlot::kHost);
    bs.read(0x6000, &out, sizeof(out), CopySlot::kDevice);
    EXPECT_EQ(out, 0u);
    EXPECT_EQ(bs.materializedPages(), 1u);
}

TEST(BackingStore, CopyRoundTripsKeepContent)
{
    BackingStore bs(true);
    std::array<std::uint8_t, kSmallPageSize> in{}, out{};
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<std::uint8_t>(i * 31 + 7);
    bs.write(0x7000, in.data(), in.size(), CopySlot::kHost);
    for (int trip = 0; trip < 100; ++trip) {
        bs.copyPage(0x7000, CopySlot::kHost, CopySlot::kDevice);
        bs.dropPage(0x7000, CopySlot::kHost);
        bs.copyPage(0x7000, CopySlot::kDevice, CopySlot::kHost);
        if (trip % 2)
            bs.dropPage(0x7000, CopySlot::kDevice);
    }
    for (CopySlot s : {CopySlot::kHost, CopySlot::kDevice}) {
        if (!bs.hasPage(0x7000, s))
            continue;
        bs.read(0x7000, out.data(), out.size(), s);
        EXPECT_EQ(out, in);
    }
    EXPECT_TRUE(bs.hasPage(0x7000, CopySlot::kHost));
}

TEST(BackingStore, MaterializedPagesCountsSlotsNotBuffers)
{
    BackingStore bs(true);
    std::uint8_t b = 1;
    bs.write(0x1000, &b, 1, CopySlot::kHost);
    bs.copyPage(0x1000, CopySlot::kHost, CopySlot::kDevice);  // shared
    bs.zeroPage(0x2000, CopySlot::kHost);                     // zero page
    bs.zeroPage(0x3000, CopySlot::kDevice);                   // zero page
    bs.copyPage(0x4000, CopySlot::kHost, CopySlot::kDevice);  // absent src
    EXPECT_EQ(bs.materializedPages(), 5u);
    bs.dropPage(0x1000, CopySlot::kHost);
    bs.dropPage(0x5000, CopySlot::kHost);  // never materialized
    EXPECT_EQ(bs.materializedPages(), 4u);
}

TEST(BackingStore, ZeroLengthIoIsANoOp)
{
    // A page-aligned VA and VA 0: va + len - 1 lies on the previous
    // page, or wraps around, so only an early return keeps these legal.
    for (bool enabled : {true, false}) {
        SCOPED_TRACE(enabled);
        BackingStore bs(enabled);
        std::uint8_t b = 0xab;
        for (VirtAddr va : {VirtAddr{0}, VirtAddr{kSmallPageSize}}) {
            bs.write(va, &b, 0, CopySlot::kHost);
            bs.read(va, &b, 0, CopySlot::kHost);
            EXPECT_FALSE(bs.hasPage(va, CopySlot::kHost));
        }
        EXPECT_EQ(b, 0xab);
        EXPECT_EQ(bs.materializedPages(), 0u);
    }
}

TEST(BackingStore, LineWriteOnSharedPageStaysPrivate)
{
    BackingStore bs(true);
    bs.zeroPage(0x1000, CopySlot::kHost);
    bs.zeroPage(0x3000, CopySlot::kHost);
    // A tag poke into the zero page, carried along by a page copy,
    // then a write to another line of the copy.
    std::uint64_t tag = 0x1122334455667788, other = 0x99aabbccddeeff00;
    bs.write(0x1000 + 8, &tag, sizeof(tag), CopySlot::kHost);
    bs.copyPage(0x1000, CopySlot::kHost, CopySlot::kDevice);
    bs.write(0x1000 + 200, &other, sizeof(other), CopySlot::kDevice);

    std::array<std::uint8_t, kSmallPageSize> host{}, device{}, zeros{};
    std::memcpy(host.data() + 8, &tag, sizeof(tag));
    device = host;
    std::memcpy(device.data() + 200, &other, sizeof(other));
    std::array<std::uint8_t, kSmallPageSize> page{};
    bs.read(0x1000, page.data(), page.size(), CopySlot::kHost);
    EXPECT_EQ(page, host);
    bs.read(0x1000, page.data(), page.size(), CopySlot::kDevice);
    EXPECT_EQ(page, device);
    bs.read(0x3000, page.data(), page.size(), CopySlot::kHost);
    EXPECT_EQ(page, zeros);
    EXPECT_EQ(bs.materializedPages(), 3u);
}

TEST(BackingStore, SharedLineIsCopiedOnWrite)
{
    // A tagged page copied to the other slot shares its line.  One
    // side then writes, into the tag's line or (folding) into another
    // one; fresh lines on another page would reuse any line the write
    // wrongly freed.  Each side keeps its own bytes, also after the
    // writer's copy is dropped.
    const std::uint64_t tag = 0x1122334455667788, val = 0x0badc0de,
                        junk = ~std::uint64_t{0};
    for (CopySlot writer : {CopySlot::kHost, CopySlot::kDevice}) {
        for (std::size_t at : {16u, 200u}) {
            SCOPED_TRACE(testing::Message()
                         << "writer " << static_cast<int>(writer)
                         << " at " << at);
            const CopySlot other = writer == CopySlot::kHost
                                       ? CopySlot::kDevice
                                       : CopySlot::kHost;
            BackingStore bs(true);
            bs.zeroPage(0x1000, CopySlot::kHost);
            bs.write(0x1000 + 8, &tag, sizeof(tag), CopySlot::kHost);
            bs.copyPage(0x1000, CopySlot::kHost, CopySlot::kDevice);
            bs.write(0x1000 + at, &val, sizeof(val), writer);
            auto freshLines = [&](VirtAddr page) {
                for (CopySlot s : {CopySlot::kHost, CopySlot::kDevice}) {
                    bs.zeroPage(page, s);
                    bs.write(page + 8, &junk, sizeof(junk), s);
                }
            };
            freshLines(0x3000);

            std::array<std::uint8_t, kSmallPageSize> mine{}, theirs{}, got{};
            std::memcpy(theirs.data() + 8, &tag, sizeof(tag));
            mine = theirs;
            std::memcpy(mine.data() + at, &val, sizeof(val));
            bs.read(0x1000, got.data(), got.size(), writer);
            EXPECT_EQ(got, mine);
            bs.read(0x1000, got.data(), got.size(), other);
            EXPECT_EQ(got, theirs);

            bs.dropPage(0x1000, writer);
            freshLines(0x5000);
            bs.read(0x1000, got.data(), got.size(), other);
            EXPECT_EQ(got, theirs);
            bs.dropPage(0x1000, other);
            EXPECT_EQ(bs.materializedPages(), 4u);
        }
    }
}

/**
 * Deep-copy reference for the backing store: one independent 4 KB
 * array per materialized (page, slot), copied byte for byte.
 */
class ReferenceStore
{
  public:
    using Page = std::array<std::uint8_t, kSmallPageSize>;

    void
    write(VirtAddr va, const std::uint8_t *data, std::size_t len,
          CopySlot slot)
    {
        Page &p = pages_[{smallPageNumber(va), slot}];  // zero if new
        std::memcpy(p.data() + va % kSmallPageSize, data, len);
    }

    void
    read(VirtAddr va, std::uint8_t *out, std::size_t len,
         CopySlot slot) const
    {
        auto it = pages_.find({smallPageNumber(va), slot});
        if (it == pages_.end())
            std::memset(out, 0, len);
        else
            std::memcpy(out, it->second.data() + va % kSmallPageSize, len);
    }

    void zeroPage(VirtAddr va, CopySlot slot)
    {
        pages_[{smallPageNumber(va), slot}].fill(0);
    }

    void
    copyPage(VirtAddr va, CopySlot from, CopySlot to)
    {
        Page src{};
        read(va - va % kSmallPageSize, src.data(), src.size(), from);
        pages_[{smallPageNumber(va), to}] = src;
    }

    void dropPage(VirtAddr va, CopySlot slot)
    {
        pages_.erase({smallPageNumber(va), slot});
    }

    bool hasPage(VirtAddr va, CopySlot slot) const
    {
        return pages_.count({smallPageNumber(va), slot}) != 0;
    }

    std::size_t materializedPages() const { return pages_.size(); }

  private:
    std::map<std::pair<std::uint64_t, CopySlot>, Page> pages_;
};

/** A random page mask: half the time sparse (one page in eight),
 *  else the whole block or a random half of it. */
PageMask
randomMask(sim::Rng &rng)
{
    const std::uint64_t kind = rng.below(4);
    PageMask m;
    if (kind == 0) {
        m.set();
        return m;
    }
    for (std::uint32_t p = 0; p < kPagesPerBlock; ++p)
        m[p] = kind == 1 ? rng.below(2) == 0 : rng.below(8) == 0;
    return m;
}

TEST(BackingStore, MatchesDeepCopyReferenceOnRandomOps)
{
    // Pages in four 2 MB blocks, so same-index pages of different
    // blocks are exercised too.
    const std::uint64_t page_nos[] = {0, 1, 2, 511, 512, 513, 1024, 1537};
    const std::uint64_t kBlocks = 4;
    const CopySlot slots[] = {CopySlot::kHost, CopySlot::kDevice};
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        sim::Rng rng(seed);
        BackingStore bs(true);
        ReferenceStore ref;
        std::vector<std::uint8_t> buf(kSmallPageSize), want(kSmallPageSize);
        // Apply a reference per-page op to every page of a mask; the
        // store under test takes the mask whole.
        auto each = [](VirtAddr block_base, const PageMask &mask,
                       auto &&fn) {
            forEachSetPage(mask, [&](std::uint32_t p) {
                fn(block_base + p * kSmallPageSize);
            });
        };
        for (int op = 0; op < 5'000; ++op) {
            // Mostly the listed pages; sometimes any page of the
            // blocks, which the mask ops reach too.
            std::uint64_t page_no = rng.below(4)
                                        ? page_nos[rng.below(8)]
                                        : rng.below(kBlocks * kPagesPerBlock);
            VirtAddr page_va = page_no * kSmallPageSize;
            VirtAddr block_base = alignDown(page_va, kBigPageSize);
            CopySlot slot = slots[rng.below(2)];
            std::size_t off = rng.below(kSmallPageSize);
            // Half the ops move at most 16 bytes, so most writes fit
            // in one 64-byte line and some straddle two.
            std::size_t max_len = kSmallPageSize - off;
            if (rng.below(2))
                max_len = std::min<std::size_t>(max_len, 16);
            std::size_t len = 1 + rng.below(max_len);
            VirtAddr va = page_va + off;
            switch (rng.below(17)) {
              case 0:
              case 1:
              case 2:
              case 3:
                for (std::size_t i = 0; i < len; ++i)
                    buf[i] = static_cast<std::uint8_t>(rng.next());
                bs.write(va, buf.data(), len, slot);
                ref.write(va, buf.data(), len, slot);
                break;
              case 4:
              case 5:
                bs.read(va, buf.data(), len, slot);
                ref.read(va, want.data(), len, slot);
                ASSERT_EQ(0, std::memcmp(buf.data(), want.data(), len))
                    << "op " << op;
                break;
              case 6:
                bs.read(page_va, buf.data(), buf.size(), slot);
                ref.read(page_va, want.data(), want.size(), slot);
                ASSERT_EQ(buf, want) << "op " << op;
                break;
              case 7:
              case 8:
                bs.zeroPage(va, slot);
                ref.zeroPage(va, slot);
                break;
              case 9:
              case 10: {
                CopySlot to = slots[rng.below(2)];
                bs.copyPage(va, slot, to);
                ref.copyPage(va, slot, to);
                break;
              }
              case 11:
                bs.dropPage(va, slot);
                ref.dropPage(va, slot);
                break;
              case 12: {
                PageMask mask = randomMask(rng);
                bs.zeroPages(block_base, mask, slot);
                each(block_base, mask,
                     [&](VirtAddr v) { ref.zeroPage(v, slot); });
                break;
              }
              case 13: {
                PageMask mask = randomMask(rng);
                CopySlot to = slots[rng.below(2)];
                bs.copyPages(block_base, mask, slot, to);
                each(block_base, mask,
                     [&](VirtAddr v) { ref.copyPage(v, slot, to); });
                break;
              }
              case 14: {
                PageMask mask = randomMask(rng);
                bs.dropPages(block_base, mask, slot);
                each(block_base, mask,
                     [&](VirtAddr v) { ref.dropPage(v, slot); });
                break;
              }
              case 15: {
                // Give the page a line (a short write onto a shared
                // base), copy it to the other slot, write on the
                // source side, the destination side or both, then
                // drop both copies in either order, with a short write
                // between the drops that takes a fresh line.
                const CopySlot to =
                    slot == CopySlot::kHost ? CopySlot::kDevice
                                            : CopySlot::kHost;
                auto shortWrite = [&](CopySlot s) {
                    const std::size_t o =
                        rng.below(kSmallPageSize / 64) * 64 + rng.below(57);
                    const std::size_t n = 1 + rng.below(8);
                    for (std::size_t i = 0; i < n; ++i)
                        buf[i] = static_cast<std::uint8_t>(rng.next());
                    bs.write(page_va + o, buf.data(), n, s);
                    ref.write(page_va + o, buf.data(), n, s);
                };
                bs.copyPage(page_va, slot, to);
                ref.copyPage(page_va, slot, to);
                shortWrite(slot);
                bs.copyPage(page_va, slot, to);
                ref.copyPage(page_va, slot, to);
                const std::uint64_t sides = 1 + rng.below(3);
                for (CopySlot s : {slot, to}) {
                    if ((sides & (s == slot ? 1 : 2)) == 0)
                        continue;
                    for (std::size_t i = 0; i < len; ++i)
                        buf[i] = static_cast<std::uint8_t>(rng.next());
                    bs.write(va, buf.data(), len, s);
                    ref.write(va, buf.data(), len, s);
                }
                for (CopySlot s : {slot, to}) {
                    bs.read(page_va, buf.data(), buf.size(), s);
                    ref.read(page_va, want.data(), want.size(), s);
                    ASSERT_EQ(buf, want) << "op " << op;
                }
                const CopySlot first = rng.below(2) ? slot : to;
                const CopySlot second = first == slot ? to : slot;
                bs.dropPage(page_va, first);
                ref.dropPage(page_va, first);
                shortWrite(first);
                bs.read(page_va, buf.data(), buf.size(), second);
                ref.read(page_va, want.data(), want.size(), second);
                ASSERT_EQ(buf, want) << "op " << op;
                bs.dropPage(page_va, second);
                ref.dropPage(page_va, second);
                break;
              }
              default: {
                // Empty the block, then write into it again.
                PageMask all;
                all.set();
                for (CopySlot s : slots) {
                    bs.dropPages(block_base, all, s);
                    each(block_base, all,
                         [&](VirtAddr v) { ref.dropPage(v, s); });
                }
                ASSERT_FALSE(bs.hasPage(page_va, slot)) << "op " << op;
                buf[0] = static_cast<std::uint8_t>(rng.next());
                bs.write(va, buf.data(), 1, slot);
                ref.write(va, buf.data(), 1, slot);
                break;
              }
            }
            ASSERT_EQ(bs.materializedPages(), ref.materializedPages())
                << "op " << op;
            for (std::uint64_t pn : page_nos) {
                for (CopySlot s : slots) {
                    ASSERT_EQ(bs.hasPage(pn * kSmallPageSize, s),
                              ref.hasPage(pn * kSmallPageSize, s))
                        << "op " << op << " page " << pn;
                }
            }
            ASSERT_EQ(bs.hasPage(page_va, slot), ref.hasPage(page_va, slot))
                << "op " << op << " page " << page_no;
        }
        for (std::uint64_t pn = 0; pn < kBlocks * kPagesPerBlock; ++pn) {
            for (CopySlot s : slots) {
                ASSERT_EQ(bs.hasPage(pn * kSmallPageSize, s),
                          ref.hasPage(pn * kSmallPageSize, s))
                    << "page " << pn;
                bs.read(pn * kSmallPageSize, buf.data(), buf.size(), s);
                ref.read(pn * kSmallPageSize, want.data(), want.size(), s);
                ASSERT_EQ(buf, want) << "page " << pn;
            }
        }
    }
}

TEST(ZeroEngine, CostScalesWithSize)
{
    ZeroEngine z(400.0, sim::microseconds(1));
    sim::SimDuration small = z.zeroCost(4 * sim::kKiB);
    sim::SimDuration big = z.zeroCost(2 * sim::kMiB);
    EXPECT_GT(big, small);
    // 2 MiB at 400 GB/s is ~5.2 us plus 1 us setup.
    EXPECT_NEAR(sim::toMicroseconds(big), 6.2, 0.3);
    EXPECT_EQ(z.stats().get("zero_ops"), 2u);
    EXPECT_EQ(z.stats().get("zero_bytes"),
              4 * sim::kKiB + 2 * sim::kMiB);
}

}  // namespace
}  // namespace uvmd::mem
