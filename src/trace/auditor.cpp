#include "trace/auditor.hpp"

namespace uvmd::trace {

using interconnect::Direction;

Auditor::BlockAudit &
Auditor::auditOf(const uvm::VaBlock &block)
{
    return blocks_[block.base / mem::kBigPageSize];
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
    open_bytes_ += pages.count() * mem::kSmallPageSize;
}

void
Auditor::onTransferSkipped(const uvm::VaBlock & /*block*/,
                           const uvm::PageMask &pages, Direction dir,
                           uvm::TransferCause /*cause*/)
{
    sim::Bytes bytes = pages.count() * mem::kSmallPageSize;
    if (dir == Direction::kHostToDevice)
        skipped_h2d_ += bytes;
    else
        skipped_d2h_ += bytes;
}

void
Auditor::close(const uvm::VaBlock &block, const uvm::PageMask &pages,
               bool required)
{
    auto it = blocks_.find(block.base / mem::kBigPageSize);
    if (it == blocks_.end())
        return;
    closeAudit(it->second, pages, required);
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
}

}  // namespace uvmd::trace
