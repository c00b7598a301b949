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
BackingStore::releaseBase(std::uint32_t base)
{
    if (--bases_[base - kFirstBase].refs == 0)
        bases_.release(base - kFirstBase);
}

void
BackingStore::releaseLine(std::uint32_t line)
{
    if (--lines_[line].refs == 0)
        lines_.release(line);
}

void
BackingStore::unref(const Copy &c)
{
    if (c.base >= kFirstBase)
        releaseBase(c.base);
    if (c.line != kNoLine)
        releaseLine(c.line);
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
    const std::uint32_t idx = bases_.alloc();
    Base &b = bases_[idx];
    b.refs = 1;
    if (from == kZero)
        b.bytes.fill(0);
    else
        b.bytes = bases_[from - kFirstBase].bytes;
    return kFirstBase + idx;
}

std::uint32_t
BackingStore::newLine(std::uint8_t at, const std::uint8_t *src)
{
    const std::uint32_t idx = lines_.alloc();
    Line &l = lines_[idx];
    l.refs = 1;
    l.at = at;
    if (src)
        std::memcpy(l.bytes.data(), src, kLineSize);
    else
        l.bytes.fill(0);
    return idx;
}

void
BackingStore::writeCopy(Block &block, Copy &c, std::size_t off,
                        const void *data, std::size_t len)
{
    if (c.base == kAbsent) {
        ++block.live;
        c.base = kZero;
    }
    const auto line = static_cast<std::uint8_t>(off / kLineSize);
    const bool shared =
        c.base == kZero || bases_[c.base - kFirstBase].refs > 1;
    if (shared && line == (off + len - 1) / kLineSize &&
        (c.line == kNoLine || lines_[c.line].at == line)) {
        if (c.line == kNoLine) {
            const std::uint8_t *src =
                c.base == kZero ? nullptr
                                : bases_[c.base - kFirstBase].bytes.data() +
                                      line * kLineSize;
            c.line = newLine(line, src);
        } else if (lines_[c.line].refs > 1) {
            // The other slot shares the line: write into a clone.
            const std::uint32_t old = c.line;
            c.line = newLine(line, lines_[old].bytes.data());
            releaseLine(old);
        }
        std::memcpy(lines_[c.line].bytes.data() + off % kLineSize, data,
                    len);
        return;
    }
    // Fold the line into a private base, then write in place.
    if (shared) {
        const std::uint32_t old = c.base;
        c.base = cloneBase(old);
        if (old >= kFirstBase)
            releaseBase(old);
    }
    Payload &bytes = bases_[c.base - kFirstBase].bytes;
    if (c.line != kNoLine) {
        const Line &l = lines_[c.line];
        std::memcpy(bytes.data() + l.at * kLineSize, l.bytes.data(),
                    kLineSize);
        releaseLine(c.line);
        c.line = kNoLine;
    }
    std::memcpy(bytes.data() + off, data, len);
}

void
BackingStore::readCopy(Copy c, std::size_t off, void *out,
                       std::size_t len) const
{
    if (c.base < kFirstBase)
        std::memset(out, 0, len);
    else
        std::memcpy(out, bases_[c.base - kFirstBase].bytes.data() + off,
                    len);
    if (c.line == kNoLine)
        return;
    // Overlay the part of the line that [off, off + len) covers.
    const Line &l = lines_[c.line];
    const std::size_t line_lo = l.at * kLineSize;
    const std::size_t lo = std::max(off, line_lo);
    const std::size_t hi = std::min(off + len, line_lo + kLineSize);
    if (lo < hi)
        std::memcpy(static_cast<std::uint8_t *>(out) + (lo - off),
                    l.bytes.data() + (lo - line_lo), hi - lo);
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
    writeCopy(block, block.pages[pageIndexInBlock(va)][at(slot)],
              va % kSmallPageSize, data, len);
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
    readCopy(block ? block->pages[pageIndexInBlock(va)][at(slot)] : Copy{},
             va % kSmallPageSize, out, len);
}

void
BackingStore::writeWords(VirtAddr block_base, std::uint32_t lo,
                         const PageMask &on_device,
                         std::span<const std::uint64_t> words)
{
    if (!enabled_ || words.empty())
        return;
    Block &block = touch(block_base);
    for (std::uint32_t i = 0; i < words.size(); ++i) {
        const std::uint32_t p = lo + i;
        const CopySlot slot =
            on_device.test(p) ? CopySlot::kDevice : CopySlot::kHost;
        writeCopy(block, block.pages[p][at(slot)], 0, &words[i],
                  sizeof(std::uint64_t));
    }
}

void
BackingStore::readWords(VirtAddr block_base, std::uint32_t lo,
                        const PageMask &on_device,
                        std::span<std::uint64_t> words) const
{
    const Block *block = enabled_ ? find(block_base) : nullptr;
    if (!block) {
        std::fill(words.begin(), words.end(), 0);
        return;
    }
    for (std::uint32_t i = 0; i < words.size(); ++i) {
        const std::uint32_t p = lo + i;
        const CopySlot slot =
            on_device.test(p) ? CopySlot::kDevice : CopySlot::kHost;
        readCopy(block->pages[p][at(slot)], 0, &words[i],
                 sizeof(std::uint64_t));
    }
}

void
BackingStore::copyOne(Block &block, std::uint32_t page, CopySlot from,
                      CopySlot to)
{
    const Copy src = block.pages[page][at(from)];
    // A never-materialized source reads as zeros, so the copy does.
    const Copy fresh{src.base == kAbsent ? kZero : src.base, src.line};
    // Take the new references before assign releases the old ones,
    // so a copy onto the same slot keeps its payload and line alive.
    if (fresh.base >= kFirstBase)
        ++bases_[fresh.base - kFirstBase].refs;
    if (fresh.line != kNoLine)
        ++lines_[fresh.line].refs;
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
