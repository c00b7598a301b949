/**
 * @file
 * Event-log instrumentation: an ordered record of every migration,
 * skip, discard and free the driver performs.  To watch one driver
 * with the log and other observers (auditor, advisor, oracle), attach
 * them all through uvm::ObserverMux.
 *
 * The log is what you diff when a policy change moves traffic around:
 * each entry carries the event ordinal, the block base, page count,
 * direction and cause.  `writeCsv` dumps it for external analysis.
 */

#ifndef UVMD_TRACE_TRANSFER_LOG_HPP
#define UVMD_TRACE_TRANSFER_LOG_HPP

#include <memory>
#include <string>
#include <vector>

#include "uvm/observer.hpp"

namespace uvmd::trace {

/** Records transfer-level events in order. */
class TransferLog : public uvm::TransferObserver
{
  public:
    enum class Event : std::uint8_t {
        kTransfer,
        kSkipped,
        kDiscard,
        kFree,
        kAccess,
        kFault,       ///< an injected fault fired (DMA, alloc, link)
        kRetry,       ///< a failed DMA descriptor was re-issued
        kRetirement,  ///< an ECC-bad chunk left service
        kOomFallback, ///< exhaustion served via remote access
    };

    struct Entry {
        std::uint64_t ordinal;
        Event event;
        mem::VirtAddr block_base;
        std::uint32_t pages;
        interconnect::Direction dir;   // transfers/skips only
        uvm::TransferCause cause;      // transfers/skips only
        /** Detail for fault-class events (meaningless otherwise). */
        uvm::FaultEvent fault = uvm::FaultEvent::kDmaFault;
    };

    /** @param log_accesses also record one entry per access batch
     *         (off by default: accesses dominate event volume). */
    explicit TransferLog(bool log_accesses = false)
        : log_accesses_(log_accesses)
    {}

    void onTransfer(const uvm::VaBlock &b, const uvm::PageMask &p,
                    interconnect::Direction d,
                    uvm::TransferCause c) override;
    void onTransferSkipped(const uvm::VaBlock &b,
                           const uvm::PageMask &p,
                           interconnect::Direction d,
                           uvm::TransferCause c) override;
    void onAccess(const uvm::VaBlock &b, const uvm::PageMask &p,
                  bool r, bool w, uvm::ProcessorId where) override;
    void onDiscard(const uvm::VaBlock &b,
                   const uvm::PageMask &p) override;
    void onFree(const uvm::VaBlock &b, const uvm::PageMask &p) override;
    void onFault(uvm::FaultEvent e, mem::VirtAddr base,
                 std::uint32_t pages) override;

    /** Entries per chunk.  Appends allocate a fresh chunk every 4096
     *  entries and never move existing entries, so long traces don't
     *  pay vector reallocate-and-copy spikes. */
    static constexpr std::size_t kChunkEntries = 4096;

    const Entry &
    entry(std::size_t i) const
    {
        return chunks_[i / kChunkEntries][i % kChunkEntries];
    }

    /** Invoke @p fn on every entry, in record order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < size_; ++i)
            fn(entry(i));
    }

    std::size_t size() const { return size_; }

    /** Drop all entries; allocated chunks are kept for reuse. */
    void clear() { size_ = 0; }

    /** Entries touching the block that contains @p addr. */
    std::vector<Entry> entriesFor(mem::VirtAddr addr) const;

    /** Dump as CSV (ordinal,event,block,pages,direction,cause). */
    void writeCsv(const std::string &path) const;

    static const char *toString(Event e);

  private:
    void push(Event e, const uvm::VaBlock &b, const uvm::PageMask &p,
              interconnect::Direction d, uvm::TransferCause c);

    /** Slot for the next entry, growing the chunk list if needed. */
    Entry &append();

    bool log_accesses_;
    std::uint64_t next_ordinal_ = 0;
    std::vector<std::unique_ptr<Entry[]>> chunks_;
    std::size_t size_ = 0;
};

}  // namespace uvmd::trace

#endif  // UVMD_TRACE_TRANSFER_LOG_HPP
