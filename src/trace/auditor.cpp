#include "trace/auditor.hpp"

#include <algorithm>
#include <bit>

namespace uvmd::trace {

using interconnect::Direction;

Auditor::BlockAudit &
Auditor::auditOf(const uvm::VaBlock &block)
{
    return blocks_[block.blockIndex()];
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
    std::uint64_t key = block.blockIndex();
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
}

void
Auditor::close(const uvm::VaBlock &block, const uvm::PageMask &pages,
               bool required)
{
    std::uint64_t key = block.blockIndex();
    if (!isOpen(key))
        return;
    BlockAudit &audit = blocks_.find(key)->second;
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
    std::uint64_t first = blocks[0]->blockIndex();
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
Auditor::finalizeBlock(const uvm::VaBlock &block)
{
    uvm::PageMask all;
    all.set();
    close(block, all, /*required=*/false);
}

void
Auditor::finalize()
{
    uvm::PageMask all;
    all.set();
    for (auto &kv : blocks_)
        closeAudit(kv.second, all, /*required=*/false);
    std::fill(open_.begin(), open_.end(), 0);
}

}  // namespace uvmd::trace
