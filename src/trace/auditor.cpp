#include "trace/auditor.hpp"

#include <algorithm>
#include <bit>

#include "uvm/va_space.hpp"

namespace uvmd::trace {

using interconnect::Direction;

namespace {

/** Bit of @p block in Auditor::open_ and its slot in the table:
 *  managed keys start at VaSpace::kFirstKey, so both do too (a block
 *  below it is not a managed block and must not reach the Auditor). */
std::uint64_t
openKey(const uvm::VaBlock &block)
{
    return block.blockIndex() - uvm::VaSpace::kFirstKey;
}

}  // namespace

Auditor::RangeWaste &
Auditor::wasteOf(const uvm::VaRange &range)
{
    if (range.id >= ranges_.size())
        ranges_.resize(range.id + 1);
    RangeWaste &waste = ranges_[range.id];
    if (waste.range_name.empty())
        waste.range_name = range.name;
    return waste;
}

void
Auditor::Planes::add(const uvm::PageMask &pages, std::uint64_t n)
{
    // Add 2^j for each set bit j of n: a carry rippling up from plane
    // j, which stops at the first plane it leaves no carry in.
    for (; n != 0; n &= n - 1) {
        std::size_t i = std::countr_zero(n);
        if (planes_.size() < i)
            planes_.resize(i);
        uvm::PageMask carry = pages;
        for (; carry.any(); ++i) {
            if (i == planes_.size()) {
                planes_.push_back(carry);
                break;
            }
            uvm::PageMask next = planes_[i] & carry;
            planes_[i] ^= carry;
            carry = next;
        }
    }
}

std::uint64_t
Auditor::Planes::take(const uvm::PageMask &pages)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < planes_.size(); ++i) {
        uvm::PageMask &plane = planes_[i];
        sum += (plane & pages).count() << i;
        plane &= ~pages;
    }
    while (!planes_.empty() && planes_.back().none())
        planes_.pop_back();
    return sum;
}

std::uint64_t
Auditor::open(OpenCounts &counts, const uvm::VaBlock &block,
              const uvm::PageMask &pages)
{
    if (pages == block.valid) {
        ++counts.uniform;
        counts.total += block.valid_pages;
        return block.valid_pages;
    }
    std::uint64_t n = pages.count();
    if (counts.planes == kNoPlanes)
        counts.planes = planes_.alloc();
    planes_[counts.planes].add(pages, 1);
    counts.total += n;
    return n;
}

std::uint64_t
Auditor::take(OpenCounts &counts, const uvm::VaBlock &block,
              const uvm::PageMask &pages)
{
    if (counts.total == 0)
        return 0;
    if (pages == block.valid)
        return takeAll(counts);
    std::uint64_t sum = counts.planes == kNoPlanes
                            ? 0
                            : planes_[counts.planes].take(pages);
    if (counts.uniform > 0) {
        // The closed valid pages give up the uniform count; the other
        // valid pages keep theirs, now held in the planes.
        sum += std::uint64_t{counts.uniform} * (pages & block.valid).count();
        uvm::PageMask rest = block.valid & ~pages;
        if (rest.any()) {
            if (counts.planes == kNoPlanes)
                counts.planes = planes_.alloc();
            planes_[counts.planes].add(rest, counts.uniform);
        }
        counts.uniform = 0;
    }
    counts.total -= sum;
    if (counts.total == 0)
        takeAll(counts);  // the planes are all zero: release them
    return sum;
}

std::uint64_t
Auditor::takeAll(OpenCounts &counts)
{
    std::uint64_t sum = counts.total;
    counts.total = 0;
    counts.uniform = 0;
    if (counts.planes != kNoPlanes) {
        planes_[counts.planes].clear();
        planes_.release(counts.planes);
        counts.planes = kNoPlanes;
    }
    return sum;
}

void
Auditor::onTransfer(const uvm::VaBlock &block,
                    const uvm::PageMask &pages, Direction dir,
                    uvm::TransferCause /*cause*/)
{
    std::uint64_t key = openKey(block);
    std::uint64_t chunk = key >> kChunkLog;
    if (chunk >= table_.size())
        table_.resize(chunk + 1);
    if (!table_[chunk])
        table_[chunk] = std::make_unique<Chunk>();
    BlockAudit &audit = recordAt(key);
    if (!isOpen(key)) {
        // Block VAs are never reused, so the owning range is fixed;
        // naming it now lets closes book by id alone.
        audit.range = block.range->id;
        wasteOf(*block.range);
    }
    open_bytes_ +=
        open(dir == Direction::kHostToDevice ? audit.h2d : audit.d2h,
             block, pages) *
        mem::kSmallPageSize;
    if (key / 64 >= open_.size())
        open_.resize(key / 64 + 1, 0);
    open_[key / 64] |= std::uint64_t{1} << key % 64;
}

void
Auditor::onTransferSkipped(const uvm::VaBlock &block,
                           const uvm::PageMask &pages,
                           Direction /*dir*/,
                           uvm::TransferCause /*cause*/)
{
    wasteOf(*block.range).already_skipped +=
        block.pagesIn(pages) * mem::kSmallPageSize;
}

void
Auditor::close(const uvm::VaBlock &block, const uvm::PageMask &pages,
               bool required)
{
    std::uint64_t key = openKey(block);
    if (!isOpen(key))
        return;
    BlockAudit &audit = recordAt(key);
    book(audit, take(audit.h2d, block, pages),
         take(audit.d2h, block, pages), required);
    if (audit.h2d.total == 0 && audit.d2h.total == 0)
        open_[key / 64] &= ~(std::uint64_t{1} << key % 64);
}

void
Auditor::closeWhole(std::uint64_t key, bool required)
{
    BlockAudit &audit = recordAt(key);
    book(audit, takeAll(audit.h2d), takeAll(audit.d2h), required);
    open_[key / 64] &= ~(std::uint64_t{1} << key % 64);
}

void
Auditor::book(const BlockAudit &audit, std::uint64_t h2d,
              std::uint64_t d2h, bool required)
{
    sim::Bytes hb = h2d * mem::kSmallPageSize;
    sim::Bytes db = d2h * mem::kSmallPageSize;
    if (required) {
        required_h2d_ += hb;
        required_d2h_ += db;
    } else {
        redundant_h2d_ += hb;
        redundant_d2h_ += db;
        if (hb + db > 0) {
            RangeWaste &waste = ranges_[audit.range];
            waste.wasted_bytes += hb + db;
            ++waste.dead_cycles;
        }
    }
    open_bytes_ -= hb + db;
}

template <typename Fn>
void
Auditor::forEachOpen(std::uint64_t first, std::uint64_t end, Fn fn) const
{
    end = std::min<std::uint64_t>(end, open_.size() * 64);
    for (std::uint64_t k = first; k < end;) {
        std::uint64_t word = open_[k / 64] >> k % 64;
        if (word == 0) {
            k = (k / 64 + 1) * 64;
            continue;
        }
        k += std::countr_zero(word);
        if (k >= end)
            break;
        fn(k);
        ++k;
    }
}

void
Auditor::onAccess(const uvm::VaBlock &block, const uvm::PageMask &pages,
                  bool is_read, bool is_write,
                  uvm::ProcessorId /*where*/)
{
    if (is_read) {
        // The moved value was consumed: all open transfers of it were
        // required.  (Read-modify-write closes as required first.)
        close(block, pages, /*required=*/true);
    } else if (is_write) {
        // Overwritten unread: the moves were redundant.
        close(block, pages, /*required=*/false);
    }
}

void
Auditor::onAccessRun(uvm::VaBlock *const *blocks, std::size_t n,
                     bool is_read, bool is_write,
                     uvm::ProcessorId /*where*/)
{
    // onAccess over each block's valid pages, a whole-block close of
    // each block whose open bit is set: the run's blocks have
    // consecutive keys, so a word of the bitmap covers 64 of them.
    if ((!is_read && !is_write) || n == 0)
        return;
    std::uint64_t first = openKey(*blocks[0]);
    forEachOpen(first, first + n,
                [&](std::uint64_t key) { closeWhole(key, is_read); });
}

void
Auditor::onDiscard(const uvm::VaBlock &block, const uvm::PageMask &pages)
{
    close(block, pages, /*required=*/false);
}

void
Auditor::onFree(const uvm::VaBlock &block, const uvm::PageMask &pages)
{
    close(block, pages, /*required=*/false);
}

void
Auditor::finalize()
{
    if (open_bytes_ == 0)
        return;  // nothing open: a repeated call stays free
    forEachOpen(0, open_.size() * 64,
                [&](std::uint64_t key) { closeWhole(key, false); });
}

bool
Auditor::hashState(sim::Digest &d) const
{
    auto counts = [&](const OpenCounts &c) {
        d.add(c.uniform);
        d.add(c.total);
        if (c.planes != kNoPlanes)
            planes_[c.planes].hashState(d);
    };
    forEachOpen(0, open_.size() * 64, [&](std::uint64_t key) {
        const BlockAudit &audit = recordAt(key);
        d.add(key);
        counts(audit.h2d);
        counts(audit.d2h);
    });
    return true;
}

std::vector<Auditor::RangeWaste>
Auditor::suggestions(sim::Bytes min_wasted)
{
    finalize();
    std::vector<RangeWaste> result;
    for (const RangeWaste &waste : ranges_) {
        if (waste.wasted_bytes > 0 && waste.wasted_bytes >= min_wasted)
            result.push_back(waste);
    }
    std::sort(result.begin(), result.end(),
              [](const RangeWaste &a, const RangeWaste &b) {
                  return a.wasted_bytes > b.wasted_bytes;
              });
    return result;
}

std::string
Auditor::RangeWaste::advice() const
{
    return "buffer '" + range_name + "': " +
           sim::formatBytes(wasted_bytes) +
           " moved redundantly across " +
           std::to_string(dead_cycles) +
           " dead cycles - insert UvmDiscard after the last read of "
           "each cycle (and a re-arming prefetch before reuse)";
}

void
Auditor::report(std::ostream &os, sim::Bytes min_wasted)
{
    auto list = suggestions(min_wasted);
    if (list.empty()) {
        os << "DiscardAdvisor: no redundant transfers attributed - "
              "nothing to suggest.\n";
        return;
    }
    os << "DiscardAdvisor: " << list.size()
       << " buffer(s) would benefit from the discard directive:\n";
    for (const auto &s : list)
        os << "  - " << s.advice() << "\n";
}

}  // namespace uvmd::trace
