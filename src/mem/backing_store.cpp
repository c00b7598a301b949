#include "mem/backing_store.hpp"

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

BackingStore::Payload &
BackingStore::writable(std::uint64_t page_no, CopySlot slot)
{
    PayloadPtr &ptr = pages_[page_no][at(slot)];
    if (!ptr)
        ptr = std::make_shared<Payload>();
    else if (ptr.use_count() > 1)
        ptr = std::make_shared<Payload>(*ptr);
    return *ptr;
}

void
BackingStore::write(VirtAddr va, const void *data, std::size_t len,
                    CopySlot slot)
{
    if (!enabled_)
        return;
    if (smallPageNumber(va) != smallPageNumber(va + len - 1))
        sim::panic("BackingStore::write crosses a 4KB page boundary");
    Payload &p = writable(smallPageNumber(va), slot);
    std::memcpy(p.data() + va % kSmallPageSize, data, len);
}

void
BackingStore::read(VirtAddr va, void *out, std::size_t len,
                   CopySlot slot) const
{
    if (!enabled_) {
        std::memset(out, 0, len);
        return;
    }
    if (smallPageNumber(va) != smallPageNumber(va + len - 1))
        sim::panic("BackingStore::read crosses a 4KB page boundary");
    auto it = pages_.find(smallPageNumber(va));
    const Payload *p =
        it == pages_.end() ? nullptr : it->second[at(slot)].get();
    if (!p) {
        std::memset(out, 0, len);
        return;
    }
    std::memcpy(out, p->data() + va % kSmallPageSize, len);
}

void
BackingStore::zeroPage(VirtAddr va, CopySlot slot)
{
    if (!enabled_)
        return;
    pages_[smallPageNumber(va)][at(slot)] = zero_;
}

void
BackingStore::copyPage(VirtAddr va, CopySlot from, CopySlot to)
{
    if (!enabled_)
        return;
    PageCopies &pc = pages_[smallPageNumber(va)];
    // A never-materialized source reads as zeros, so the copy does.
    pc[at(to)] = pc[at(from)] ? pc[at(from)] : zero_;
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
    pc[at(slot)].reset();
    if (!pc[0] && !pc[1])
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
    return it != pages_.end() && it->second[at(slot)] != nullptr;
}

std::size_t
BackingStore::materializedPages() const
{
    std::size_t n = 0;
    for (const auto &kv : pages_)
        n += (kv.second[0] != nullptr) + (kv.second[1] != nullptr);
    return n;
}

}  // namespace uvmd::mem
