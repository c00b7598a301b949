/**
 * @file
 * Per-GPU framebuffer capacity accounting at 2 MB chunk granularity.
 *
 * The UVM driver allocates GPU physical memory for managed ranges in
 * 2 MB chunks (paper Section 5.4).  This allocator models capacity
 * only: a chunk has no physical address in this simulation, just
 * existence.  A portion of the framebuffer can be *reserved* to model
 * the paper's oversubscription methodology (Section 7.1: an idle GPU
 * program occupies a fixed amount of GPU memory).
 */

#ifndef UVMD_MEM_CHUNK_ALLOCATOR_HPP
#define UVMD_MEM_CHUNK_ALLOCATOR_HPP

#include <cstdint>

#include "mem/page.hpp"
#include "sim/digest.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

#define UVMD_ALLOC_STATS(X, X2)                                         \
    X(chunk_allocs)                                                     \
    X(chunk_frees)                                                      \
    X(chunks_retired)

namespace uvmd::mem {

UVMD_STAT_TABLE(AllocStat, AllocStats, UVMD_ALLOC_STATS);

class ChunkAllocator
{
  public:
    /**
     * @param capacity usable framebuffer size; rounded down to a whole
     *                 number of 2 MB chunks.
     */
    explicit ChunkAllocator(sim::Bytes capacity);

    /** Total chunk capacity (after rounding, before reservations). */
    std::uint64_t totalChunks() const { return total_chunks_; }

    /** Chunks currently allocated to va_blocks. */
    std::uint64_t allocatedChunks() const { return allocated_chunks_; }

    /** Chunks pinned by reserve() (the oversubscription occupier). */
    std::uint64_t reservedChunks() const { return reserved_chunks_; }

    /** Chunks permanently retired after ECC-style failures. */
    std::uint64_t retiredChunks() const { return retired_chunks_; }

    /** Chunks on the free queue. */
    std::uint64_t
    freeChunks() const
    {
        return total_chunks_ - allocated_chunks_ - reserved_chunks_ -
               retired_chunks_;
    }

    sim::Bytes
    usableBytes() const
    {
        return (total_chunks_ - reserved_chunks_ - retired_chunks_) *
               kBigPageSize;
    }

    /**
     * Permanently pin @p bytes of framebuffer (rounded up to chunks).
     * Used by workloads::Occupier.  Fails fatally if the reservation
     * does not fit in currently-free memory.
     */
    void reserve(sim::Bytes bytes);

    /** Like reserve(), but reports an oversized reservation instead
     *  of failing fatally.  @return false with no state change when
     *  the reservation does not fit in currently-free memory. */
    bool tryReserve(sim::Bytes bytes);

    /** Release a previous reservation of @p bytes. */
    void unreserve(sim::Bytes bytes);

    /**
     * Allocate one 2 MB chunk from the free queue.
     * @return true on success; false means the caller must evict.
     */
    bool tryAllocChunk();

    /** Return one chunk to the free queue. */
    void freeChunk();

    /**
     * Pass an allocated chunk straight from an evicted block to a new
     * one: counted as a free and an allocation, without the round
     * trip through the free queue.
     */
    void
    handOverChunk()
    {
        ++stats_[AllocStat::chunk_frees];
        ++stats_[AllocStat::chunk_allocs];
    }

    /**
     * Permanently retire one currently-allocated chunk (ECC-style
     * page failure).  The chunk leaves the allocated set and joins
     * the retired set, shrinking usable capacity; it never returns
     * to the free queue.  The caller must already have migrated any
     * resident data off the chunk.
     */
    void retireAllocatedChunk();

    /** Allocation statistics (UVMD_ALLOC_STATS). */
    sim::StatGroup stats() const { return stats_.group(); }

    /** Add the chunk accounting to @p d (the statistics are outputs
     *  and stay out).  Chunks carry no id: which block holds one is
     *  the block's state. */
    void
    hashState(sim::Digest &d) const
    {
        d.add(total_chunks_);
        d.add(allocated_chunks_);
        d.add(reserved_chunks_);
        d.add(retired_chunks_);
    }

  private:
    std::uint64_t total_chunks_;
    std::uint64_t allocated_chunks_ = 0;
    std::uint64_t reserved_chunks_ = 0;
    std::uint64_t retired_chunks_ = 0;
    AllocStats stats_;
};

}  // namespace uvmd::mem

#endif  // UVMD_MEM_CHUNK_ALLOCATOR_HPP
