#include "uvm/va_space.hpp"

#include "sim/logging.hpp"

namespace uvmd::uvm {

mem::VirtAddr
VaSpace::createRange(sim::Bytes size, std::string name)
{
    if (size == 0)
        sim::fatal("VaSpace::createRange: zero-size allocation");

    std::uint32_t id = next_range_id_++;
    mem::VirtAddr base = next_base_;
    sim::Bytes span = mem::alignUp(size, mem::kBigPageSize);
    next_base_ += span + mem::kBigPageSize;  // guard block between ranges

    VaRange &range =
        ranges_.emplace(id, VaRange{id, base, size, std::move(name), {}})
            .first->second;
    std::size_t nblocks = span / mem::kBigPageSize;
    range.blocks.reserve(nblocks);
    // Keys are monotonic (bump allocator), so the dense index only
    // ever grows at the tail; the guard gap becomes a nullptr hole.
    std::uint64_t last_key =
        (base + (nblocks - 1) * mem::kBigPageSize) / mem::kBigPageSize;
    if (last_key - kFirstKey >= block_index_.size())
        block_index_.resize(last_key - kFirstKey + 1, nullptr);
    for (std::size_t i = 0; i < nblocks; ++i) {
        VaBlock *block = arena_.create();
        block->base = base + i * mem::kBigPageSize;
        block->range = &range;
        block->setValid(maskForRange(block->base, base, size));
        block_index_[block->base / mem::kBigPageSize - kFirstKey] =
            block;
        range.blocks.push_back(block);
    }
    live_blocks_ += nblocks;
    return base;
}

void
VaSpace::destroyRange(mem::VirtAddr base)
{
    VaRange *range = rangeOf(base);
    if (!range || range->base != base)
        sim::fatal("VaSpace::destroyRange: unknown base address");
    for (VaBlock *block : range->blocks) {
        block_index_[block->base / mem::kBigPageSize - kFirstKey] =
            nullptr;
        arena_.destroy(block);
    }
    live_blocks_ -= range->blocks.size();
    cached_block_ = nullptr;
    ranges_.erase(range->id);
}

std::size_t
VaSpace::forEachBlock(mem::VirtAddr addr, sim::Bytes size,
                      sim::FunctionRef<void(VaBlock &,
                                            const PageMask &)> fn)
{
    if (size == 0)
        return 0;
    mem::VirtAddr cur = mem::alignDown(addr, mem::kBigPageSize);
    mem::VirtAddr end = addr + size;
    std::size_t visited = 0;
    for (; cur < end; cur += mem::kBigPageSize, ++visited) {
        VaBlock *block = blockOf(cur);
        if (!block) {
            sim::fatal("VaSpace::forEachBlock: address 0x" +
                       std::to_string(cur) + " is not managed");
        }
        // Only the first and last blocks can be cut by the span.
        if (cur >= addr && cur + mem::kBigPageSize <= end) {
            fn(*block, block->valid);
            continue;
        }
        PageMask mask = maskForRange(block->base, addr, size) &
                        block->valid;
        if (mask.any())
            fn(*block, mask);
    }
    return visited;
}

void
VaSpace::forEachBlockAll(sim::FunctionRef<void(VaBlock &)> fn)
{
    for (auto &kv : ranges_) {
        for (VaBlock *block : kv.second.blocks)
            fn(*block);
    }
}

void
VaSpace::hashState(sim::Digest &d) const
{
    d.add(next_range_id_);
    d.add(next_base_);
    for (const auto &[id, range] : ranges_) {
        d.add(id);
        d.add(range.base);
        d.add(range.size);
        d.add(static_cast<std::uint64_t>(range.state));
        // summary_gpu is stale while no summary holds.
        if (range.state != RangeState::kNone)
            d.add(static_cast<std::uint64_t>(range.summary_gpu));
        for (const VaBlock *block : range.blocks)
            block->hashState(d);
    }
}

}  // namespace uvmd::uvm
