#include "trace/advisor.hpp"

#include <algorithm>

#include "uvm/driver.hpp"

namespace uvmd::trace {

template <typename Fn>
void
DiscardAdvisor::attribute(const uvm::VaBlock &block, Fn &&fn)
{
    sim::Bytes redundant_before = auditor_.redundantTotal();
    sim::Bytes skipped_before =
        auditor_.skippedH2d() + auditor_.skippedD2h();
    fn();
    sim::Bytes wasted = auditor_.redundantTotal() - redundant_before;
    sim::Bytes skipped =
        auditor_.skippedH2d() + auditor_.skippedD2h() - skipped_before;
    if (wasted == 0 && skipped == 0)
        return;

    RangeStats &stats = ranges_[block.range->id];
    stats.wasted += wasted;
    stats.skipped += skipped;
    if (wasted > 0)
        ++stats.dead_cycles;
    if (stats.name.empty())
        stats.name = block.range->name;
}

void
DiscardAdvisor::onTransfer(const uvm::VaBlock &block,
                           const uvm::PageMask &pages,
                           interconnect::Direction dir,
                           uvm::TransferCause cause)
{
    auditor_.onTransfer(block, pages, dir, cause);
}

void
DiscardAdvisor::onTransferSkipped(const uvm::VaBlock &block,
                                  const uvm::PageMask &pages,
                                  interconnect::Direction dir,
                                  uvm::TransferCause cause)
{
    attribute(block, [&] {
        auditor_.onTransferSkipped(block, pages, dir, cause);
    });
}

void
DiscardAdvisor::onAccess(const uvm::VaBlock &block,
                         const uvm::PageMask &pages, bool is_read,
                         bool is_write, uvm::ProcessorId where)
{
    attribute(block, [&] {
        auditor_.onAccess(block, pages, is_read, is_write, where);
    });
}

void
DiscardAdvisor::onDiscard(const uvm::VaBlock &block,
                          const uvm::PageMask &pages)
{
    // Transfers killed by an *existing* discard call count as wasted
    // too (the call came later than it could have), but the skip
    // accounting below distinguishes already-handled buffers.
    attribute(block, [&] { auditor_.onDiscard(block, pages); });
}

void
DiscardAdvisor::onFree(const uvm::VaBlock &block,
                       const uvm::PageMask &pages)
{
    attribute(block, [&] { auditor_.onFree(block, pages); });
}

std::vector<DiscardAdvisor::Suggestion>
DiscardAdvisor::suggestions(sim::Bytes min_wasted)
{
    if (!finalized_) {
        // Values never read again: their last moves were redundant.
        driver_.vaSpace().forEachBlockAll([&](uvm::VaBlock &b) {
            attribute(b, [&] { auditor_.finalizeBlock(b); });
        });
        auditor_.finalize();  // anything in already-freed ranges
        finalized_ = true;
    }

    std::vector<Suggestion> result;
    for (const auto &kv : ranges_) {
        const RangeStats &stats = kv.second;
        if (stats.wasted < min_wasted || stats.wasted == 0)
            continue;
        Suggestion s;
        s.range_name = stats.name;
        s.wasted_bytes = stats.wasted;
        s.dead_cycles = stats.dead_cycles;
        s.already_skipped = stats.skipped;
        result.push_back(std::move(s));
    }
    std::sort(result.begin(), result.end(),
              [](const Suggestion &a, const Suggestion &b) {
                  return a.wasted_bytes > b.wasted_bytes;
              });
    return result;
}

std::string
DiscardAdvisor::Suggestion::advice() const
{
    return "buffer '" + range_name + "': " +
           sim::formatBytes(wasted_bytes) +
           " moved redundantly across " +
           std::to_string(dead_cycles) +
           " dead cycles - insert UvmDiscard after the last read of "
           "each cycle (and a re-arming prefetch before reuse)";
}

void
DiscardAdvisor::report(std::ostream &os, sim::Bytes min_wasted)
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
