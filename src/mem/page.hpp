/**
 * @file
 * Page-size constants and alignment helpers.
 *
 * NVIDIA's UVM driver manages virtual memory in 2 MB "va_blocks" that
 * internally track 4 KB pages; GPUs map either one 2 MB PTE or 512
 * 4 KB PTEs per block (paper Section 5.4).  These constants are used
 * pervasively, so they live in their own tiny header.
 */

#ifndef UVMD_MEM_PAGE_HPP
#define UVMD_MEM_PAGE_HPP

#include <array>
#include <bit>
#include <bitset>
#include <cstdint>

#include "sim/time.hpp"

namespace uvmd::mem {

/** Small (4 KB) page size. */
inline constexpr sim::Bytes kSmallPageSize = 4 * sim::kKiB;

/** Big (2 MB) page / va_block / GPU chunk size. */
inline constexpr sim::Bytes kBigPageSize = 2 * sim::kMiB;

/** Number of 4 KB pages per 2 MB block. */
inline constexpr std::uint32_t kPagesPerBlock =
    static_cast<std::uint32_t>(kBigPageSize / kSmallPageSize);  // 512

/** Per-block bitmap with one bit per 4 KB page. */
using PageMask = std::bitset<kPagesPerBlock>;

/** A unified virtual address (byte granularity). */
using VirtAddr = std::uint64_t;

constexpr VirtAddr
alignDown(VirtAddr addr, sim::Bytes alignment)
{
    return addr & ~(alignment - 1);
}

constexpr VirtAddr
alignUp(VirtAddr addr, sim::Bytes alignment)
{
    return (addr + alignment - 1) & ~(alignment - 1);
}

constexpr bool
isAligned(VirtAddr addr, sim::Bytes alignment)
{
    return (addr & (alignment - 1)) == 0;
}

/** Index of the 4 KB page containing @p addr within its 2 MB block. */
constexpr std::uint32_t
pageIndexInBlock(VirtAddr addr)
{
    return static_cast<std::uint32_t>((addr % kBigPageSize) /
                                      kSmallPageSize);
}

/** Global 4 KB page number of @p addr. */
constexpr std::uint64_t
smallPageNumber(VirtAddr addr)
{
    return addr / kSmallPageSize;
}

// ----------------------------------------------------------------
// Page-mask helpers
//
// Every driver subsystem reasons about per-block page bitmaps; the
// helpers are templated on the bitset width so they serve any mask
// type without this header depending on the uvm layer.
//
// All of them operate on the bitset 64 bits at a time: the masks are
// the hottest data structure in the simulator (every transfer,
// discard, audit and eviction walks them), and per-bit test() loops
// dominated host profiles before the word-scan rewrite.  Run and bit
// extraction use std::countr_zero / std::countr_one so a full 512-bit
// mask costs a handful of word operations instead of 512 branches.
// tests/page_mask_test.cpp property-checks every helper against a
// naive per-bit reference.
// ----------------------------------------------------------------

/** Number of 64-bit words backing an N-bit mask. */
template <std::size_t N>
inline constexpr std::size_t kMaskWords = (N + 63) / 64;

/**
 * Extract the 64-bit words of @p mask, least-significant word first
 * (bit i of word w is mask bit w*64+i).  std::bitset exposes no word
 * access, so words are peeled off with shift+mask — O(words^2) word
 * operations, still far cheaper than per-bit iteration and the single
 * place to specialize if a platform offers direct word access.
 */
template <std::size_t N>
std::array<std::uint64_t, kMaskWords<N>>
maskWords(const std::bitset<N> &mask)
{
    std::array<std::uint64_t, kMaskWords<N>> words;
    if constexpr (N <= 64) {
        words[0] = mask.to_ullong();
    } else {
        static const std::bitset<N> kLow64{~std::uint64_t{0}};
        std::bitset<N> rest = mask;
        for (std::size_t w = 0; w + 1 < kMaskWords<N>; ++w) {
            words[w] = (rest & kLow64).to_ullong();
            rest >>= 64;
        }
        words[kMaskWords<N> - 1] = (rest & kLow64).to_ullong();
    }
    return words;
}

/** Index of the lowest set bit, or N when the mask is empty. */
template <std::size_t N>
std::uint32_t
firstSet(const std::bitset<N> &mask)
{
    const auto words = maskWords(mask);
    for (std::size_t w = 0; w < words.size(); ++w) {
        if (words[w] != 0) {
            return static_cast<std::uint32_t>(
                w * 64 + std::countr_zero(words[w]));
        }
    }
    return static_cast<std::uint32_t>(N);
}

/** Index of the highest set bit, or N when the mask is empty. */
template <std::size_t N>
std::uint32_t
lastSet(const std::bitset<N> &mask)
{
    const auto words = maskWords(mask);
    for (std::size_t w = words.size(); w-- > 0;) {
        if (words[w] != 0) {
            return static_cast<std::uint32_t>(
                w * 64 + 63 - std::countl_zero(words[w]));
        }
    }
    return static_cast<std::uint32_t>(N);
}

/** Mask with bits [first, last] (inclusive) set, built with three
 *  whole-mask shifts instead of per-bit set() calls.
 *  @pre first <= last < N. */
template <std::size_t N>
std::bitset<N>
makeRunMask(std::uint32_t first, std::uint32_t last)
{
    std::bitset<N> mask;
    mask.set();
    mask >>= N - 1 - (last - first);
    mask <<= first;
    return mask;
}

/** Invoke @p fn(first, last) for each contiguous run of set bits
 *  (both bounds inclusive), in ascending order. */
template <std::size_t N, typename Fn>
void
forEachRun(const std::bitset<N> &mask, Fn &&fn)
{
    if (mask.none())
        return;
    const auto words = maskWords(mask);
    bool open = false;          // a run continues from the prior word
    std::uint32_t first = 0;    // where that run started
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t x = words[w];
        const auto base = static_cast<std::uint32_t>(w * 64);
        if (open) {
            if (x == ~std::uint64_t{0})
                continue;  // run spans this entire word too
            const std::uint32_t len =
                static_cast<std::uint32_t>(std::countr_one(x));
            fn(first, base + len - 1);
            open = false;
            x &= ~std::uint64_t{0} << len;  // len < 64 here
        }
        while (x != 0) {
            const std::uint32_t s =
                static_cast<std::uint32_t>(std::countr_zero(x));
            const std::uint32_t len = static_cast<std::uint32_t>(
                std::countr_one(x >> s));
            if (s + len == 64) {
                open = true;  // run may continue into the next word
                first = base + s;
                break;
            }
            fn(base + s, base + s + len - 1);
            x &= ~std::uint64_t{0} << (s + len);
        }
    }
    if (open) {
        // Bits at or above N are always clear, so a run still open
        // after the last word ends exactly at the top mask bit.
        fn(first, static_cast<std::uint32_t>(N - 1));
    }
}

/** Number of contiguous runs of set bits.  Each run is one DMA
 *  descriptor when the mask is migrated: fragmented masks pay the
 *  per-transfer setup repeatedly (the paper's Section 5.4 argument
 *  against splitting 2 MB pages).  A run start is a set bit whose
 *  predecessor (carrying across words) is clear. */
template <std::size_t N>
std::uint32_t
countRuns(const std::bitset<N> &mask)
{
    const auto words = maskWords(mask);
    std::uint32_t runs = 0;
    std::uint64_t carry = 0;  // MSB of the previous word
    for (std::uint64_t x : words) {
        runs += static_cast<std::uint32_t>(
            std::popcount(x & ~((x << 1) | carry)));
        carry = x >> 63;
    }
    return runs;
}

/** Invoke @p fn(page) for each set bit of @p mask in ascending order
 *  (the backing-store iteration idiom). */
template <std::size_t N, typename Fn>
void
forEachSetPage(const std::bitset<N> &mask, Fn &&fn)
{
    if (mask.none())
        return;
    const auto words = maskWords(mask);
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t x = words[w];
        const auto base = static_cast<std::uint32_t>(w * 64);
        while (x != 0) {
            fn(base +
               static_cast<std::uint32_t>(std::countr_zero(x)));
            x &= x - 1;  // clear the lowest set bit
        }
    }
}

}  // namespace uvmd::mem

#endif  // UVMD_MEM_PAGE_HPP
