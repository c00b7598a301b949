#include "mem/backing_store.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace uvmd::mem {

namespace {

constexpr std::size_t
at(CopySlot slot)
{
    return static_cast<std::size_t>(slot);
}

constexpr std::uint64_t
blockKey(VirtAddr va)
{
    return va / kBigPageSize;
}

}  // namespace

BackingStore::BackingStore(bool enabled) : enabled_(enabled) {}

BackingStore::Block *
BackingStore::find(VirtAddr va) const
{
    auto it = blocks_.find(blockKey(va));
    if (it == blocks_.end())
        return nullptr;
    // read() and the mutators share this lookup; the entry is ours.
    return const_cast<Block *>(&it->second);
}

BackingStore::Block &
BackingStore::touch(VirtAddr va)
{
    return blocks_[blockKey(va)];
}

void
BackingStore::eraseIfEmpty(VirtAddr block_base, const Block &block)
{
    if (block.live == 0)
        blocks_.erase(blockKey(block_base));
}

void
BackingStore::unref(const Copy &c)
{
    if (c.base >= kFirstBase && --bases_[c.base - kFirstBase]->refs == 0)
        free_bases_.push_back(c.base);
    if (c.line != kNoLine)
        free_lines_.push_back(c.line);
}

void
BackingStore::assign(Block &block, Copy &c, Copy fresh)
{
    if (c.base == kAbsent)
        ++block.live;
    else
        unref(c);
    c = fresh;
}

std::uint32_t
BackingStore::cloneBase(std::uint32_t from)
{
    std::uint32_t idx;
    if (free_bases_.empty()) {
        idx = kFirstBase + static_cast<std::uint32_t>(bases_.size());
        bases_.push_back(std::make_unique<Base>());
    } else {
        idx = free_bases_.back();
        free_bases_.pop_back();
    }
    Base &b = *bases_[idx - kFirstBase];
    b.refs = 1;
    if (from == kZero)
        b.bytes.fill(0);
    else
        b.bytes = bases_[from - kFirstBase]->bytes;
    return idx;
}

std::uint32_t
BackingStore::newLine()
{
    if (free_lines_.empty()) {
        lines_.emplace_back();
        return static_cast<std::uint32_t>(lines_.size() - 1);
    }
    std::uint32_t idx = free_lines_.back();
    free_lines_.pop_back();
    return idx;
}

void
BackingStore::write(VirtAddr va, const void *data, std::size_t len,
                    CopySlot slot)
{
    if (!enabled_ || len == 0)
        return;
    if (smallPageNumber(va) != smallPageNumber(va + len - 1))
        sim::panic("BackingStore::write crosses a 4KB page boundary");
    Block &block = touch(va);
    Copy &c = block.pages[pageIndexInBlock(va)][at(slot)];
    if (c.base == kAbsent) {
        ++block.live;
        c.base = kZero;
    }
    const std::size_t off = va % kSmallPageSize;
    const auto line = static_cast<std::uint8_t>(off / kLineSize);
    const bool shared =
        c.base == kZero || bases_[c.base - kFirstBase]->refs > 1;
    if (shared && line == (off + len - 1) / kLineSize &&
        (c.line == kNoLine || lines_[c.line].at == line)) {
        if (c.line == kNoLine) {
            c.line = newLine();
            Line &l = lines_[c.line];
            l.at = line;
            if (c.base == kZero)
                l.bytes.fill(0);
            else
                std::memcpy(l.bytes.data(),
                            bases_[c.base - kFirstBase]->bytes.data() +
                                line * kLineSize,
                            kLineSize);
        }
        std::memcpy(lines_[c.line].bytes.data() + off % kLineSize, data,
                    len);
        return;
    }
    // Fold the line into a private base, then write in place.
    if (shared) {
        const std::uint32_t old = c.base;
        c.base = cloneBase(old);
        unref(Copy{old, kNoLine});
    }
    Payload &bytes = bases_[c.base - kFirstBase]->bytes;
    if (c.line != kNoLine) {
        const Line &l = lines_[c.line];
        std::memcpy(bytes.data() + l.at * kLineSize, l.bytes.data(),
                    kLineSize);
        free_lines_.push_back(c.line);
        c.line = kNoLine;
    }
    std::memcpy(bytes.data() + off, data, len);
}

void
BackingStore::read(VirtAddr va, void *out, std::size_t len,
                   CopySlot slot) const
{
    if (len == 0)
        return;
    if (!enabled_) {
        std::memset(out, 0, len);
        return;
    }
    if (smallPageNumber(va) != smallPageNumber(va + len - 1))
        sim::panic("BackingStore::read crosses a 4KB page boundary");
    const Block *block = find(va);
    const Copy c =
        block ? block->pages[pageIndexInBlock(va)][at(slot)] : Copy{};
    const std::size_t off = va % kSmallPageSize;
    if (c.base < kFirstBase)
        std::memset(out, 0, len);
    else
        std::memcpy(out, bases_[c.base - kFirstBase]->bytes.data() + off,
                    len);
    if (c.line == kNoLine)
        return;
    // Overlay the part of the private line that [off, off + len) covers.
    const Line &l = lines_[c.line];
    const std::size_t line_lo = l.at * kLineSize;
    const std::size_t lo = std::max(off, line_lo);
    const std::size_t hi = std::min(off + len, line_lo + kLineSize);
    if (lo < hi)
        std::memcpy(static_cast<std::uint8_t *>(out) + (lo - off),
                    l.bytes.data() + (lo - line_lo), hi - lo);
}

void
BackingStore::copyOne(Block &block, std::uint32_t page, CopySlot from,
                      CopySlot to)
{
    const Copy src = block.pages[page][at(from)];
    // A never-materialized source reads as zeros, so the copy does.
    Copy fresh{src.base == kAbsent ? kZero : src.base, kNoLine};
    // Take the new references before assign releases the old ones,
    // so a copy onto the same slot keeps its payload alive.
    if (fresh.base >= kFirstBase)
        ++bases_[fresh.base - kFirstBase]->refs;
    if (src.line != kNoLine) {
        fresh.line = newLine();
        lines_[fresh.line] = lines_[src.line];
    }
    assign(block, block.pages[page][at(to)], fresh);
}

void
BackingStore::dropOne(Block &block, std::uint32_t page, CopySlot slot)
{
    Copy &c = block.pages[page][at(slot)];
    if (c.base == kAbsent)
        return;
    unref(c);
    c = Copy{};
    --block.live;
}

void
BackingStore::zeroPage(VirtAddr va, CopySlot slot)
{
    if (!enabled_)
        return;
    Block &block = touch(va);
    assign(block, block.pages[pageIndexInBlock(va)][at(slot)], Copy{kZero});
}

void
BackingStore::copyPage(VirtAddr va, CopySlot from, CopySlot to)
{
    if (!enabled_)
        return;
    copyOne(touch(va), pageIndexInBlock(va), from, to);
}

void
BackingStore::dropPage(VirtAddr va, CopySlot slot)
{
    if (!enabled_)
        return;
    Block *block = find(va);
    if (!block)
        return;
    dropOne(*block, pageIndexInBlock(va), slot);
    eraseIfEmpty(va, *block);
}

void
BackingStore::zeroPages(VirtAddr block_base, const PageMask &mask,
                        CopySlot slot)
{
    if (!enabled_ || mask.none())
        return;
    Block &block = touch(block_base);
    forEachSetPage(mask, [&](std::uint32_t p) {
        assign(block, block.pages[p][at(slot)], Copy{kZero});
    });
}

void
BackingStore::copyPages(VirtAddr block_base, const PageMask &mask,
                        CopySlot from, CopySlot to)
{
    if (!enabled_ || mask.none())
        return;
    Block &block = touch(block_base);
    forEachSetPage(mask,
                   [&](std::uint32_t p) { copyOne(block, p, from, to); });
}

void
BackingStore::dropPages(VirtAddr block_base, const PageMask &mask,
                        CopySlot slot)
{
    if (!enabled_)
        return;
    Block *block = find(block_base);
    if (!block)
        return;
    forEachSetPage(mask, [&](std::uint32_t p) { dropOne(*block, p, slot); });
    eraseIfEmpty(block_base, *block);
}

bool
BackingStore::hasPage(VirtAddr va, CopySlot slot) const
{
    const Block *block = find(va);
    return block &&
           block->pages[pageIndexInBlock(va)][at(slot)].base != kAbsent;
}

std::size_t
BackingStore::materializedPages() const
{
    std::size_t n = 0;
    for (const auto &kv : blocks_)
        n += kv.second.live;
    return n;
}

}  // namespace uvmd::mem
