/**
 * @file
 * Optional real data payloads behind the simulated address space.
 *
 * Most experiments run "metadata-only": the driver model tracks
 * residency, queues and traffic without storing page contents, so
 * multi-GiB footprints cost only metadata.  Tests and the runnable
 * examples instead enable the backing store, which keeps an actual
 * 4 KB payload per (virtual page, copy slot) so the discard
 * directive's value semantics (paper Section 4.1) are observable:
 *
 *   - a read after discard returns either zeros (the page was
 *     reclaimed and re-zero-filled) or previously written values (the
 *     stale pinned host copy survived delayed reclamation);
 *   - a write after discard is always visible to subsequent reads.
 *
 * Exactly two copy slots exist per page: the host-side pinned copy and
 * the device copy.  Residency is exclusive in UVM, so at most one GPU
 * holds a copy at a time and a single device slot suffices even with
 * multiple GPUs.
 *
 * Payloads are copy-on-write at two grains.  Each (page, slot) holds
 * a 4 KB base, which is absent, the zero page or a reference-counted
 * payload, plus at most one reference-counted 64-byte line that
 * overrides it.  A simulated migration (copyPage) takes one more
 * reference on the base and one on the line, and a simulated
 * zero-fill (zeroPage) points the slot at the zero page, a state
 * rather than a buffer, so neither copies payload bytes on the host.
 * A write that fits in one line of a shared base (the zero page
 * included) goes into that line, cloning the line first if another
 * slot shares it, so it copies at most 64 bytes; any other write
 * folds the line into a private base, cloning the base only if it is
 * shared, releases the slot's reference on the line and then writes
 * in place.  One line suffices for the verification oracle's 8-byte
 * content tags, which land on pages a migration or zero-fill has just
 * shared.
 *
 * Slots are grouped per 2 MB va_block: one hash lookup finds a
 * block's entry, which holds both slots of its 512 pages as 8-byte
 * records indexed by mem::pageIndexInBlock.  Payloads and lines live
 * in store-wide pools addressed by 32-bit index, stored in fixed
 * chunks so that growth never moves them, and recycled through free
 * lists.  So the per-mask operations the driver calls, and the
 * per-span word I/O the oracle's tags use, are loops over an array
 * with one lookup per block and no per-page hashing or allocation,
 * and teardown frees a few vectors and one node per live block.
 */

#ifndef UVMD_MEM_BACKING_STORE_HPP
#define UVMD_MEM_BACKING_STORE_HPP

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <unordered_map>
#include <vector>

#include "mem/page.hpp"
#include "sim/arena.hpp"

namespace uvmd::mem {

/** Which physical copy of a page an operation touches. */
enum class CopySlot : std::uint8_t { kHost, kDevice };

class BackingStore
{
  public:
    explicit BackingStore(bool enabled);

    bool enabled() const { return enabled_; }

    /**
     * Write @p len bytes at virtual address @p va into the @p slot
     * copy, materializing a zero page first if none exists.  The
     * range must not cross a 4 KB page boundary; @p len 0 is a no-op.
     */
    void write(VirtAddr va, const void *data, std::size_t len,
               CopySlot slot);

    /**
     * Read @p len bytes at @p va from the @p slot copy.  Absent pages
     * read as zeros (never-populated memory is zero-filled on touch);
     * @p len 0 is a no-op.
     */
    void read(VirtAddr va, void *out, std::size_t len,
              CopySlot slot) const;

    /** Overwrite the whole 4 KB page holding @p va with zeros. */
    void zeroPage(VirtAddr va, CopySlot slot);

    /** Copy the full 4 KB page holding @p va between slots. */
    void copyPage(VirtAddr va, CopySlot from, CopySlot to);

    /** Drop the @p slot copy of the page holding @p va, if any. */
    void dropPage(VirtAddr va, CopySlot slot);

    /** @name Per-block data plane
     *  zeroPage / copyPage / dropPage for every page set in @p mask of
     *  the va_block at @p block_base; no-ops while the store is
     *  disabled. */
    ///@{
    void zeroPages(VirtAddr block_base, const PageMask &mask,
                   CopySlot slot);
    void copyPages(VirtAddr block_base, const PageMask &mask,
                   CopySlot from, CopySlot to);
    void dropPages(VirtAddr block_base, const PageMask &mask,
                   CopySlot slot);
    ///@}

    /** @name Per-span word I/O
     *  write / read of the 8-byte word at offset 0 of pages
     *  [lo, lo + words.size()) of the va_block at @p block_base: word
     *  i belongs to page lo + i, whose device copy is used where
     *  @p on_device has the page set and whose host copy otherwise.
     *  @pre lo + words.size() <= kPagesPerBlock. */
    ///@{
    void writeWords(VirtAddr block_base, std::uint32_t lo,
                    const PageMask &on_device,
                    std::span<const std::uint64_t> words);
    void readWords(VirtAddr block_base, std::uint32_t lo,
                   const PageMask &on_device,
                   std::span<std::uint64_t> words) const;
    ///@}

    /** True if the page holding @p va has a materialized @p slot copy. */
    bool hasPage(VirtAddr va, CopySlot slot) const;

    /**
     * Number of materialized (page, slot) copies, for memory
     * accounting.  Counts slots, not distinct buffers: two slots
     * sharing one payload count twice, as if each held its own.
     */
    std::size_t materializedPages() const;

  private:
    using Payload = std::array<std::uint8_t, kSmallPageSize>;

    static constexpr std::size_t kLineSize = 64;

    /** Copy::base values below kFirstBase are states, not payloads. */
    static constexpr std::uint32_t kAbsent = 0;
    static constexpr std::uint32_t kZero = 1;
    static constexpr std::uint32_t kFirstBase = 2;
    static constexpr std::uint32_t kNoLine = ~std::uint32_t{0};

    /** A pooled payload; never written while @c refs > 1. */
    struct Base {
        std::uint32_t refs;
        Payload bytes;
    };

    /** A pooled line: the bytes of line @c at of its page; never
     *  written while @c refs > 1. */
    struct Line {
        std::array<std::uint8_t, kLineSize> bytes;
        std::uint32_t refs;
        std::uint8_t at;
    };

    /**
     * One (page, slot) copy: @c base is kAbsent, kZero or
     * kFirstBase + an index into bases_, overlaid with lines_[@c line]
     * unless @c line is kNoLine.  Absent slots carry no line.
     */
    struct Copy {
        std::uint32_t base = kAbsent;
        std::uint32_t line = kNoLine;
    };

    /** One va_block's copies, indexed by page then CopySlot. */
    struct Block {
        std::array<std::array<Copy, 2>, kPagesPerBlock> pages{};
        /** Present (non-absent) copies; the entry is freed at 0. */
        std::uint32_t live = 0;
    };

    /** The entry of @p va's block, or null. */
    Block *find(VirtAddr va) const;
    /** The entry of @p va's block, created empty if missing. */
    Block &touch(VirtAddr va);
    /** Free @p block_base's entry if no copy in it is present. */
    void eraseIfEmpty(VirtAddr block_base, const Block &block);

    /** Release one reference on payload @p base (a Copy::base value
     *  from kFirstBase) or on line @p line, recycling it at 0. */
    void releaseBase(std::uint32_t base);
    void releaseLine(std::uint32_t line);
    /** Release what @p c references, leaving its fields stale. */
    void unref(const Copy &c);
    /** Replace @p c with @p fresh, whose references the caller has
     *  already taken. */
    void assign(Block &block, Copy &c, Copy fresh);

    /** The body of every write: [off, off + len) of copy @p c of a
     *  page of @p block, materializing an absent copy first.  @p len
     *  is nonzero and the range lies within the page. */
    void writeCopy(Block &block, Copy &c, std::size_t off,
                   const void *data, std::size_t len);
    /** The body of every read: [off, off + len) of copy @p c. */
    void readCopy(Copy c, std::size_t off, void *out,
                  std::size_t len) const;

    /** copyPage / dropPage on page @p page of @p block; dropOne
     *  leaves an emptied entry to its caller. */
    void copyOne(Block &block, std::uint32_t page, CopySlot from,
                 CopySlot to);
    void dropOne(Block &block, std::uint32_t page, CopySlot slot);

    /** A fresh payload index (refs 1) holding a copy of @p from's
     *  bytes (kZero: zeros). */
    std::uint32_t cloneBase(std::uint32_t from);
    /** A fresh line index (refs 1) for line @p at, holding the 64
     *  bytes at @p src (null: zeros). */
    std::uint32_t newLine(std::uint8_t at, const std::uint8_t *src);

    bool enabled_;
    /** Keyed by block number (va / 2 MB). */
    std::unordered_map<std::uint64_t, Block> blocks_;

    /** One payload per chunk: each is 4 KB already. */
    sim::Pool<Base, 0> bases_;
    /** 512 lines (36 KB) per chunk, a block's worth of tags. */
    sim::Pool<Line, 9> lines_;
};

}  // namespace uvmd::mem

#endif  // UVMD_MEM_BACKING_STORE_HPP
