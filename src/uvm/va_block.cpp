#include "uvm/va_block.hpp"

#include <array>
#include <cstring>
#include <sstream>
#include <type_traits>

#include "sim/logging.hpp"

namespace uvmd::uvm {

PageMask
makeMask(std::uint32_t first, std::uint32_t last)
{
    if (first > last || last >= mem::kPagesPerBlock)
        sim::panic("makeMask: bad page range");
    return mem::makeRunMask<mem::kPagesPerBlock>(first, last);
}

void
VaBlock::hashState(sim::Digest &d) const
{
    // A digest reads every block, so the masks are read as words: a
    // PageMask is exactly 64 bytes of bits (no padding), and any
    // one-to-one view of them hashes correctly.  Most masks are empty
    // or all set; those shapes pack into one word with the scalar
    // fields, and only the other masks are hashed word by word.
    // `valid` follows from the range's size, and `base` from the
    // block's place in its range.
    using Words = std::array<std::uint64_t, mem::kPagesPerBlock / 64>;
    static_assert(sizeof(PageMask) == sizeof(Words) &&
                  std::is_trivially_copyable_v<PageMask>);
    const PageMask *masks[] = {&resident_cpu,     &resident_gpu,
                               &cpu_pages_present, &mapped_cpu,
                               &mapped_gpu,       &discarded,
                               &discarded_lazily, &gpu_prepared};
    Words partial[std::size(masks)];
    std::size_t n_partial = 0;
    std::uint64_t word = 0;
    for (const PageMask *m : masks) {
        Words w;
        std::memcpy(w.data(), m, sizeof w);
        std::uint64_t any = 0;
        std::uint64_t all = ~std::uint64_t{0};
        for (std::uint64_t x : w) {
            any |= x;
            all &= x;
        }
        std::uint64_t shape = any == 0 ? 0 : ~all == 0 ? 1 : 2;
        if (shape == 2)
            partial[n_partial++] = w;
        word = word << 2 | shape;
    }
    word = word << 8 | static_cast<std::uint8_t>(owner_gpu);
    word = word << 8 | accessed_by;
    word = word << 8 | remote_mapped;
    word = word << 2 | static_cast<std::uint8_t>(link.on);
    word = word << 1 | has_gpu_chunk;
    word = word << 1 | gpu_mapping_big;
    word = word << 1 | prefer_cpu;
    d.add(word);
    // Queue order: each block's successor, by base (the driver adds
    // each queue's head).
    d.add(link.next ? link.next->base : 0);
    for (std::size_t i = 0; i < n_partial; ++i) {
        for (std::uint64_t x : partial[i])
            d.add(x);
    }
}

PageMask
maskForRange(mem::VirtAddr block_base, mem::VirtAddr addr,
             sim::Bytes size)
{
    mem::VirtAddr block_end = block_base + mem::kBigPageSize;
    mem::VirtAddr lo = addr > block_base ? addr : block_base;
    mem::VirtAddr hi = addr + size < block_end ? addr + size : block_end;
    if (lo >= hi)
        return {};
    std::uint32_t first =
        static_cast<std::uint32_t>((lo - block_base) / mem::kSmallPageSize);
    std::uint32_t last = static_cast<std::uint32_t>(
        (hi - 1 - block_base) / mem::kSmallPageSize);
    return makeMask(first, last);
}

std::string
VaBlock::describe() const
{
    std::ostringstream os;
    os << "block@0x" << std::hex << base << std::dec
       << " cpu=" << resident_cpu.count()
       << " gpu=" << resident_gpu.count()
       << " disc=" << discarded.count()
       << " queue=" << mem::toString(link.on)
       << (has_gpu_chunk ? " chunk" : "")
       << (gpu_mapping_big ? " big" : "");
    return os.str();
}

}  // namespace uvmd::uvm
