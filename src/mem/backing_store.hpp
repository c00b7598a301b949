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
 * a shared 4 KB base plus at most one private 64-byte line that
 * overrides it.  A simulated migration (copyPage) copies the base
 * pointer and the line, and a simulated zero-fill (zeroPage) points
 * the slot at the store's one all-zero page, so neither moves 4 KB on
 * the host.  A write that fits in one line of a shared base (the zero
 * page included) goes into that line and copies 64 bytes; any other
 * write folds the line into a private base, cloning the base only if
 * it is shared, and then writes in place.  One line suffices for the
 * verification oracle's 8-byte content tags, which land on pages a
 * migration or zero-fill has just shared.
 */

#ifndef UVMD_MEM_BACKING_STORE_HPP
#define UVMD_MEM_BACKING_STORE_HPP

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "mem/page.hpp"

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
    using PayloadPtr = std::shared_ptr<Payload>;

    static constexpr std::size_t kLineSize = 64;
    static constexpr std::uint8_t kNoLine = 0xff;

    /**
     * One (page, slot) copy: @c base, which may be shared with the
     * other slot or with the store's zero page (null: the slot is
     * absent), overlaid with the private line @c line_bytes at line
     * index @c line unless @c line is kNoLine.  A shared base is never
     * written.
     */
    struct Copy {
        PayloadPtr base;
        std::uint8_t line = kNoLine;
        std::array<std::uint8_t, kLineSize> line_bytes{};
    };

    /** A page's two copies, indexed by CopySlot. */
    using PageCopies = std::array<Copy, 2>;

    bool enabled_;
    /** The all-zero payload every zeroed slot shares (null when the
     *  store is disabled); never written. */
    PayloadPtr zero_;
    std::unordered_map<std::uint64_t, PageCopies> pages_;
};

}  // namespace uvmd::mem

#endif  // UVMD_MEM_BACKING_STORE_HPP
