#include "trace/auditor.hpp"

#include <algorithm>
#include <bit>

#include "uvm/va_space.hpp"

namespace uvmd::trace {

using interconnect::Direction;

namespace {

/** Bit of @p block in Auditor::open_: managed keys start at
 *  VaSpace::kFirstKey, so the bitmap does too (a block below it is
 *  not a managed block and must not reach the Auditor). */
std::uint64_t
openKey(const uvm::VaBlock &block)
{
    return block.blockIndex() - uvm::VaSpace::kFirstKey;
}

}  // namespace

Auditor::BlockAudit &
Auditor::auditOf(const uvm::VaBlock &block)
{
    auto [it, inserted] = blocks_.try_emplace(block.blockIndex());
    if (inserted) {
        // Block VAs are never reused, so the owning range is fixed;
        // naming it now lets finalize() book leftovers by id alone.
        it->second.range = block.range->id;
        wasteOf(*block.range);
    }
    return it->second;
}

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
Auditor::OpenCounts::add(const uvm::PageMask &pages)
{
    uvm::PageMask carry = pages;
    for (uvm::PageMask &plane : planes_) {
        uvm::PageMask next = plane & carry;
        plane ^= carry;
        carry = next;
        if (carry.none())
            return;
    }
    if (carry.any())
        planes_.push_back(carry);
}

std::uint64_t
Auditor::OpenCounts::take(const uvm::PageMask &pages)
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

void
Auditor::onTransfer(const uvm::VaBlock &block,
                    const uvm::PageMask &pages, Direction dir,
                    uvm::TransferCause /*cause*/)
{
    BlockAudit &audit = auditOf(block);
    (dir == Direction::kHostToDevice ? audit.h2d : audit.d2h).add(pages);
    open_bytes_ += block.pagesIn(pages) * mem::kSmallPageSize;
    std::uint64_t key = openKey(block);
    if (key / 64 >= open_.size())
        open_.resize(key / 64 + 1, 0);
    open_[key / 64] |= std::uint64_t{1} << key % 64;
}

void
Auditor::onTransferSkipped(const uvm::VaBlock &block,
                           const uvm::PageMask &pages, Direction dir,
                           uvm::TransferCause /*cause*/)
{
    sim::Bytes bytes = block.pagesIn(pages) * mem::kSmallPageSize;
    if (dir == Direction::kHostToDevice)
        skipped_h2d_ += bytes;
    else
        skipped_d2h_ += bytes;
    wasteOf(*block.range).already_skipped += bytes;
}

void
Auditor::close(const uvm::VaBlock &block, const uvm::PageMask &pages,
               bool required)
{
    std::uint64_t key = openKey(block);
    if (!isOpen(key))
        return;
    BlockAudit &audit = blocks_.find(block.blockIndex())->second;
    closeAudit(audit, pages, required);
    if (audit.h2d.empty() && audit.d2h.empty())
        open_[key / 64] &= ~(std::uint64_t{1} << key % 64);
}

void
Auditor::closeAudit(BlockAudit &audit, const uvm::PageMask &pages,
                    bool required)
{
    sim::Bytes hb = audit.h2d.take(pages) * mem::kSmallPageSize;
    sim::Bytes db = audit.d2h.take(pages) * mem::kSmallPageSize;
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
    // onAccess over each block's valid pages, visiting only the
    // blocks whose open bit is set: the run's blocks have consecutive
    // indices, so a word of the bitmap covers 64 of them.
    if ((!is_read && !is_write) || n == 0)
        return;
    std::uint64_t first = openKey(*blocks[0]);
    std::uint64_t end = std::min<std::uint64_t>(first + n,
                                                open_.size() * 64);
    for (std::uint64_t k = first; k < end;) {
        std::uint64_t word = open_[k / 64] >> k % 64;
        if (word == 0) {
            k = (k / 64 + 1) * 64;
            continue;
        }
        k += std::countr_zero(word);
        if (k >= end)
            break;
        const uvm::VaBlock &block = *blocks[k - first];
        close(block, block.valid, /*required=*/is_read);
        ++k;
    }
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
    uvm::PageMask all;
    all.set();
    for (auto &kv : blocks_)
        closeAudit(kv.second, all, /*required=*/false);
    std::fill(open_.begin(), open_.end(), 0);
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
