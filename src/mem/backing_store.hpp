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
 * Payloads are copy-on-write.  A simulated migration (copyPage) makes
 * the destination slot share the source's buffer, and a simulated
 * zero-fill (zeroPage) points the slot at the store's one all-zero
 * page, so neither moves 4 KB on the host.  Only a write to a shared
 * buffer (the zero page included) clones it first; a write to an
 * unshared buffer goes in place.
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
     * range must not cross a 4 KB page boundary.
     */
    void write(VirtAddr va, const void *data, std::size_t len,
               CopySlot slot);

    /**
     * Read @p len bytes at @p va from the @p slot copy.  Absent pages
     * read as zeros (never-populated memory is zero-filled on touch).
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

    /** A page's two copies, indexed by CopySlot; either may share its
     *  buffer with the other slot or with the store's zero page. */
    using PageCopies = std::array<PayloadPtr, 2>;

    /** The @p slot buffer of page @p page_no, made unshared (cloned
     *  if shared, zero-filled if absent) so it can be written. */
    Payload &writable(std::uint64_t page_no, CopySlot slot);

    bool enabled_;
    /** The all-zero payload every zeroed slot shares (null when the
     *  store is disabled); never written. */
    PayloadPtr zero_;
    std::unordered_map<std::uint64_t, PageCopies> pages_;
};

}  // namespace uvmd::mem

#endif  // UVMD_MEM_BACKING_STORE_HPP
