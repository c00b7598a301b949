/**
 * @file
 * The 2 MB va_block: the driver's unit of physical management.
 *
 * Mirrors the structure of NVIDIA's UVM driver, where a va_block
 * covers one 2 MB-aligned stretch of managed virtual memory and
 * tracks, per 4 KB page: residency (exclusive — a page lives on
 * exactly one processor), mappings, and — added by this work — the
 * discard state (Sections 5.1-5.2), plus the per-chunk
 * "fully prepared" flag of Section 5.7 and the queue linkage of
 * Section 5.5.
 */

#ifndef UVMD_UVM_VA_BLOCK_HPP
#define UVMD_UVM_VA_BLOCK_HPP

#include <bitset>
#include <cstdint>
#include <string>

#include "mem/page.hpp"
#include "mem/page_queues.hpp"
#include "sim/digest.hpp"
#include "uvm/ids.hpp"

namespace uvmd::uvm {

struct VaRange;

using mem::PageMask;

/** Mask covering pages [first, last] inclusive. */
PageMask makeMask(std::uint32_t first, std::uint32_t last);

/** Mask for the pages of this block touched by [addr, addr+size). */
PageMask maskForRange(mem::VirtAddr block_base, mem::VirtAddr addr,
                      sim::Bytes size);

/** Number of contiguous runs of set bits (one DMA descriptor each);
 *  shared implementation in mem/page.hpp. */
inline std::uint32_t
countRuns(const PageMask &mask)
{
    return mem::countRuns(mask);
}

struct VaBlock {
    /** Block base virtual address (2 MB aligned). */
    mem::VirtAddr base = 0;

    /** Owning managed range (set by VaSpace; outlives the block). */
    VaRange *range = nullptr;

    /** Pages of this block actually covered by the owning range
     *  (ranges need not be multiples of 2 MB).  Always the prefix
     *  [0, valid_pages): ranges start on a block boundary.  Assign it
     *  through setValid() only, which keeps valid_pages in step. */
    PageMask valid;

    /** valid.count(), cached: whole-block masks are the common
     *  operand of every transfer, skip and counter, and a 512-bit
     *  popcount without a hardware instruction costs tens of ns. */
    std::uint32_t valid_pages = 0;

    // ---- Residency (exclusive per page) ----

    /** Pages whose authoritative copy is on the CPU. */
    PageMask resident_cpu;

    /** Pages whose authoritative copy is on owner_gpu's chunk. */
    PageMask resident_gpu;

    /** GPU owning the 2 MB chunk backing resident_gpu (if any). */
    GpuId owner_gpu = -1;

    /** True while a 2 MB GPU chunk is allocated to this block. */
    bool has_gpu_chunk = false;

    /** CPU 4 KB pages that exist (possibly stale): while a page is
     *  GPU-resident its CPU page stays pinned (Section 2.2), and
     *  delayed reclamation keeps it after a discard (Section 5.6). */
    PageMask cpu_pages_present;

    // ---- Mappings ----

    /** Pages with live CPU PTEs. */
    PageMask mapped_cpu;

    /** Pages with live PTEs on owner_gpu. */
    PageMask mapped_gpu;

    /** GPU mapping uses a single 2 MB PTE (Section 5.4).  Partial
     *  unmapping of such a block would split it into 4 KB PTEs. */
    bool gpu_mapping_big = false;

    // ---- Cache-coherent remote access (Section 2.3) ----

    /** GPUs advised to access this block in place (cudaMemAdvise
     *  SetAccessedBy): bit i set => gpu i. */
    std::uint8_t accessed_by = 0;

    /** Block prefers to stay on the host (PreferredLocation cpu):
     *  GPU faults establish remote mappings instead of migrating. */
    bool prefer_cpu = false;

    /** GPUs currently holding remote (cross-link) mappings to the
     *  CPU-resident copy of this block. */
    std::uint8_t remote_mapped = 0;

    // ---- Discard state (this paper) ----

    /** Pages whose contents were discarded and not re-dirtied.  For
     *  UvmDiscardLazy this doubles as the inverted software dirty
     *  bit: prefetch "sets the dirty bit" == clears this mask. */
    PageMask discarded;

    /** Pages discarded while mappings were kept (lazy mode); their
     *  reclamation must still pay the unmap cost (Section 5.6). */
    PageMask discarded_lazily;

    // ---- Preparation tracking (Section 5.7) ----

    /** 4 KB pages of the current GPU chunk that have been zeroed or
     *  migrated over since the chunk was allocated. */
    PageMask gpu_prepared;

    // ---- Physical page queue linkage (Section 5.5) ----

    mem::QueueLink<VaBlock> link;

    /** Ordinal of the current chunk allocation (FIFO eviction). */
    std::uint64_t alloc_ordinal = 0;

    // ---- Derived helpers ----

    void
    setValid(const PageMask &mask)
    {
        valid = mask;
        valid_pages = static_cast<std::uint32_t>(mask.count());
    }

    /** Number of pages in @p mask: the cached count for the whole
     *  block, a popcount otherwise. */
    std::uint32_t
    pagesIn(const PageMask &mask) const
    {
        return mask == valid ? valid_pages
                             : static_cast<std::uint32_t>(mask.count());
    }

    /** Shape of a non-empty @p mask as one transfer request. */
    struct Span {
        std::uint32_t pages;  ///< set pages
        std::uint32_t runs;   ///< contiguous runs (DMA descriptors)
        std::uint32_t first;  ///< lowest set page
        std::uint32_t last;   ///< highest set page
    };

    /** The whole block is the one run [0, valid_pages); any other
     *  mask is scanned. */
    Span
    spanOf(const PageMask &mask) const
    {
        if (mask == valid)
            return {valid_pages, 1, 0, valid_pages - 1};
        return {static_cast<std::uint32_t>(mask.count()),
                mem::countRuns(mask), mem::firstSet(mask),
                mem::lastSet(mask)};
    }

    /** Forget the GPU chunk: ownership, preparation, big mapping. */
    void
    dropChunk()
    {
        has_gpu_chunk = false;
        owner_gpu = -1;
        gpu_prepared.reset();
        gpu_mapping_big = false;
    }

    std::uint32_t blockIndex() const
    {
        return static_cast<std::uint32_t>(base / mem::kBigPageSize);
    }

    /** Pages populated anywhere. */
    PageMask populated() const { return resident_cpu | resident_gpu; }

    /** True if every GPU-resident page of the block is discarded
     *  (the condition for sitting on the discarded queue). */
    bool
    allGpuResidentDiscarded() const
    {
        return resident_gpu.any() && (resident_gpu & ~discarded).none();
    }

    /** A migration of the whole block to a GPU is a fill: no chunk,
     *  nothing discarded, and the valid pages all unpopulated or all
     *  live on the host.  It allocates a chunk, then copies or zeroes
     *  every valid page (UvmDriver::fillBlockToGpu). */
    bool
    fillable() const
    {
        return !has_gpu_chunk && discarded.none() &&
               (resident_cpu.none() || resident_cpu == valid);
    }

    /** Section 5.7: chunk fully prepared? */
    bool
    fullyPrepared() const
    {
        return (valid & ~gpu_prepared).none();
    }

    std::string describe() const;

    /** Add the block's residency, mapping, discard, lazy, prepared
     *  and advice state, its chunk ownership, its queue and its
     *  successor there to @p d.  The queue heads and the allocation
     *  ordinal are the driver's to hash (UvmDriver::hashState). */
    void hashState(sim::Digest &d) const;
};

}  // namespace uvmd::uvm

#endif  // UVMD_UVM_VA_BLOCK_HPP
