/**
 * @file
 * Shared helpers for the uvmd test suite.
 */

#ifndef UVMD_TESTS_TEST_UTIL_HPP
#define UVMD_TESTS_TEST_UTIL_HPP

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "interconnect/link.hpp"
#include "trace/auditor.hpp"
#include "uvm/config.hpp"
#include "uvm/driver.hpp"
#include "uvm/observer.hpp"

namespace uvmd::test {

/**
 * A tiny, fully-backed driver configuration: @p chunks 2 MB chunks of
 * GPU memory, real page payloads, quiet lazy-contract warnings left
 * on so tests can assert on warn counts.
 */
inline uvm::UvmConfig
tinyConfig(std::uint64_t chunks = 8)
{
    uvm::UvmConfig cfg;
    cfg.gpu_memory = chunks * 2 * sim::kMiB;
    cfg.backed = true;
    return cfg;
}

inline interconnect::LinkSpec
testLink()
{
    return interconnect::LinkSpec::pcie4();
}

/** Bytes the discard state let skip: the driver's saved_*_bytes
 *  rows, peer skips included. */
inline sim::Bytes
savedBytes(const uvm::UvmDriver &drv)
{
    return drv.counter(uvm::UvmStat::saved_h2d_bytes) +
           drv.counter(uvm::UvmStat::saved_d2h_bytes) +
           drv.counter(uvm::UvmStat::saved_d2d_bytes);
}

/** After trace::Auditor::finalize(): the per-range table holds every
 *  redundant byte the auditor counted and all @p skipped bytes. */
inline void
expectAttributionConserved(const trace::Auditor &auditor,
                           sim::Bytes skipped_total,
                           const std::string &label)
{
    sim::Bytes wasted = 0;
    sim::Bytes skipped = 0;
    for (const trace::Auditor::RangeWaste &range : auditor.ranges()) {
        wasted += range.wasted_bytes;
        skipped += range.already_skipped;
    }
    EXPECT_EQ(wasted, auditor.redundantTotal()) << label;
    EXPECT_EQ(skipped, skipped_total) << label;
}

/**
 * Records every observer event as a comparable tuple: the kind letter
 * (T transfer, S skip, A access, D discard, F free, X fault, M map,
 * U unmap, C discard-state change, Q queue move), the block base, the
 * pages and two kind-specific fields.  onAccessRun keeps its default,
 * so a whole-range access appears as the per-block onAccess events
 * the walk would report.
 */
class EventRecorder : public uvm::TransferObserver
{
  public:
    struct Event {
        char kind;
        mem::VirtAddr base;
        uvm::PageMask pages;
        int a;  ///< kind-specific, see the hooks below
        int b;
        bool operator==(const Event &) const = default;
    };

    std::vector<Event> events;

    /** The events whose kind letter is in @p kinds, in order. */
    std::vector<Event>
    only(std::string_view kinds) const
    {
        std::vector<Event> out;
        for (const Event &e : events) {
            if (kinds.find(e.kind) != std::string_view::npos)
                out.push_back(e);
        }
        return out;
    }

    /** Number of onFault events reporting @p event. */
    std::size_t
    faults(uvm::FaultEvent event) const
    {
        std::size_t n = 0;
        for (const Event &e : events)
            n += e.kind == 'X' && e.a == int(event);
        return n;
    }

    void
    onTransfer(const uvm::VaBlock &blk, const uvm::PageMask &pages,
               interconnect::Direction dir,
               uvm::TransferCause cause) override
    {
        add('T', blk.base, pages, int(dir), int(cause));
    }
    void
    onTransferSkipped(const uvm::VaBlock &blk, const uvm::PageMask &pages,
                      interconnect::Direction dir,
                      uvm::TransferCause cause) override
    {
        add('S', blk.base, pages, int(dir), int(cause));
    }
    void
    onAccess(const uvm::VaBlock &blk, const uvm::PageMask &pages,
             bool is_read, bool is_write, uvm::ProcessorId where) override
    {
        add('A', blk.base, pages, is_read * 2 + is_write, code(where));
    }
    void
    onDiscard(const uvm::VaBlock &blk, const uvm::PageMask &pages) override
    {
        add('D', blk.base, pages, 0, 0);
    }
    void
    onFree(const uvm::VaBlock &blk, const uvm::PageMask &pages) override
    {
        add('F', blk.base, pages, 0, 0);
    }
    void
    onFault(uvm::FaultEvent event, mem::VirtAddr base,
            std::uint32_t pages) override
    {
        add('X', base, {}, int(event), int(pages));
    }
    void
    onMap(const uvm::VaBlock &blk, const uvm::PageMask &pages,
          uvm::ProcessorId where) override
    {
        add('M', blk.base, pages, code(where), 0);
    }
    void
    onUnmap(const uvm::VaBlock &blk, const uvm::PageMask &pages,
            uvm::ProcessorId where) override
    {
        add('U', blk.base, pages, code(where), 0);
    }
    void
    onDiscardStateChange(const uvm::VaBlock &blk,
                         const uvm::PageMask &pages,
                         bool discarded) override
    {
        add('C', blk.base, pages, discarded, 0);
    }
    void
    onQueueMove(const uvm::VaBlock &blk, mem::QueueKind from,
                mem::QueueKind to) override
    {
        add('Q', blk.base, {}, int(from), int(to));
    }

  private:
    static int
    code(uvm::ProcessorId p)
    {
        return p.isCpu() ? -1 : p.gpuIndex();
    }

    void
    add(char kind, mem::VirtAddr base, const uvm::PageMask &pages, int a,
        int b)
    {
        events.push_back({kind, base, pages, a, b});
    }
};

}  // namespace uvmd::test

#endif  // UVMD_TESTS_TEST_UTIL_HPP
