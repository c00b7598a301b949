#include "mem/chunk_allocator.hpp"

#include "sim/logging.hpp"

namespace uvmd::mem {

ChunkAllocator::ChunkAllocator(sim::Bytes capacity)
    : total_chunks_(capacity / kBigPageSize)
{
    if (total_chunks_ == 0)
        sim::fatal("ChunkAllocator: capacity smaller than one 2MB chunk");
}

void
ChunkAllocator::reserve(sim::Bytes bytes)
{
    if (!tryReserve(bytes))
        sim::fatal("ChunkAllocator: occupier reservation exceeds free "
                   "GPU memory");
}

bool
ChunkAllocator::tryReserve(sim::Bytes bytes)
{
    std::uint64_t chunks = alignUp(bytes, kBigPageSize) / kBigPageSize;
    if (chunks > freeChunks())
        return false;
    reserved_chunks_ += chunks;
    return true;
}

void
ChunkAllocator::unreserve(sim::Bytes bytes)
{
    std::uint64_t chunks = alignUp(bytes, kBigPageSize) / kBigPageSize;
    if (chunks > reserved_chunks_)
        sim::panic("ChunkAllocator: unreserve more than reserved");
    reserved_chunks_ -= chunks;
}

bool
ChunkAllocator::tryAllocChunk()
{
    if (freeChunks() == 0)
        return false;
    ++allocated_chunks_;
    ++stats_[AllocStat::chunk_allocs];
    return true;
}

void
ChunkAllocator::freeChunk()
{
    if (allocated_chunks_ == 0)
        sim::panic("ChunkAllocator: free with no allocated chunks");
    --allocated_chunks_;
    ++stats_[AllocStat::chunk_frees];
}

void
ChunkAllocator::retireAllocatedChunk()
{
    if (allocated_chunks_ == 0)
        sim::panic("ChunkAllocator: retire with no allocated chunks");
    --allocated_chunks_;
    ++retired_chunks_;
    ++stats_[AllocStat::chunks_retired];
}

}  // namespace uvmd::mem
