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

}  // namespace

BackingStore::BackingStore(bool enabled)
    : enabled_(enabled),
      zero_(enabled ? std::make_shared<Payload>() : nullptr)
{
}

void
BackingStore::write(VirtAddr va, const void *data, std::size_t len,
                    CopySlot slot)
{
    if (!enabled_ || len == 0)
        return;
    if (smallPageNumber(va) != smallPageNumber(va + len - 1))
        sim::panic("BackingStore::write crosses a 4KB page boundary");
    Copy &c = pages_[smallPageNumber(va)][at(slot)];
    if (!c.base)
        c.base = zero_;
    const std::size_t off = va % kSmallPageSize;
    const auto line = static_cast<std::uint8_t>(off / kLineSize);
    const bool shared = c.base.use_count() > 1;
    if (shared && line == (off + len - 1) / kLineSize &&
        (c.line == kNoLine || c.line == line)) {
        if (c.line == kNoLine) {
            std::memcpy(c.line_bytes.data(),
                        c.base->data() + line * kLineSize, kLineSize);
            c.line = line;
        }
        std::memcpy(c.line_bytes.data() + off % kLineSize, data, len);
        return;
    }
    // Fold the line into a private base, then write in place.
    if (shared)
        c.base = std::make_shared<Payload>(*c.base);
    if (c.line != kNoLine) {
        std::memcpy(c.base->data() + c.line * kLineSize,
                    c.line_bytes.data(), kLineSize);
        c.line = kNoLine;
    }
    std::memcpy(c.base->data() + off, data, len);
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
    auto it = pages_.find(smallPageNumber(va));
    const Copy *c = it == pages_.end() ? nullptr : &it->second[at(slot)];
    if (!c || !c->base) {
        std::memset(out, 0, len);
        return;
    }
    const std::size_t off = va % kSmallPageSize;
    std::memcpy(out, c->base->data() + off, len);
    if (c->line == kNoLine)
        return;
    // Overlay the part of the private line that [off, off + len) covers.
    const std::size_t line_lo = c->line * kLineSize;
    const std::size_t lo = std::max(off, line_lo);
    const std::size_t hi = std::min(off + len, line_lo + kLineSize);
    if (lo < hi)
        std::memcpy(static_cast<std::uint8_t *>(out) + (lo - off),
                    c->line_bytes.data() + (lo - line_lo), hi - lo);
}

void
BackingStore::zeroPage(VirtAddr va, CopySlot slot)
{
    if (!enabled_)
        return;
    pages_[smallPageNumber(va)][at(slot)] = Copy{zero_};
}

void
BackingStore::copyPage(VirtAddr va, CopySlot from, CopySlot to)
{
    if (!enabled_)
        return;
    PageCopies &pc = pages_[smallPageNumber(va)];
    // A never-materialized source reads as zeros, so the copy does.
    pc[at(to)] = pc[at(from)].base ? pc[at(from)] : Copy{zero_};
}

void
BackingStore::dropPage(VirtAddr va, CopySlot slot)
{
    if (!enabled_)
        return;
    auto it = pages_.find(smallPageNumber(va));
    if (it == pages_.end())
        return;
    PageCopies &pc = it->second;
    pc[at(slot)] = Copy{};
    if (!pc[0].base && !pc[1].base)
        pages_.erase(it);
}

void
BackingStore::zeroPages(VirtAddr block_base, const PageMask &mask,
                        CopySlot slot)
{
    if (!enabled_)
        return;
    forEachSetPage(mask, [&](std::uint32_t p) {
        zeroPage(block_base + p * kSmallPageSize, slot);
    });
}

void
BackingStore::copyPages(VirtAddr block_base, const PageMask &mask,
                        CopySlot from, CopySlot to)
{
    if (!enabled_)
        return;
    forEachSetPage(mask, [&](std::uint32_t p) {
        copyPage(block_base + p * kSmallPageSize, from, to);
    });
}

void
BackingStore::dropPages(VirtAddr block_base, const PageMask &mask,
                        CopySlot slot)
{
    if (!enabled_)
        return;
    forEachSetPage(mask, [&](std::uint32_t p) {
        dropPage(block_base + p * kSmallPageSize, slot);
    });
}

bool
BackingStore::hasPage(VirtAddr va, CopySlot slot) const
{
    auto it = pages_.find(smallPageNumber(va));
    return it != pages_.end() && it->second[at(slot)].base != nullptr;
}

std::size_t
BackingStore::materializedPages() const
{
    std::size_t n = 0;
    for (const auto &kv : pages_)
        n += (kv.second[0].base != nullptr) + (kv.second[1].base != nullptr);
    return n;
}

}  // namespace uvmd::mem
