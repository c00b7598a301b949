#include "trace/transfer_log.hpp"

#include <cstdio>

#include "sim/logging.hpp"

namespace uvmd::trace {

TransferLog::Entry &
TransferLog::append()
{
    if (size_ == chunks_.size() * kChunkEntries)
        chunks_.push_back(std::make_unique<Entry[]>(kChunkEntries));
    Entry &slot = chunks_[size_ / kChunkEntries][size_ % kChunkEntries];
    ++size_;
    return slot;
}

void
TransferLog::push(Event e, const uvm::VaBlock &b,
                  const uvm::PageMask &p, interconnect::Direction d,
                  uvm::TransferCause c)
{
    append() = Entry{next_ordinal_++, e, b.base, b.pagesIn(p), d, c};
}

void
TransferLog::onTransfer(const uvm::VaBlock &b, const uvm::PageMask &p,
                        interconnect::Direction d, uvm::TransferCause c)
{
    push(Event::kTransfer, b, p, d, c);
}

void
TransferLog::onTransferSkipped(const uvm::VaBlock &b,
                               const uvm::PageMask &p,
                               interconnect::Direction d,
                               uvm::TransferCause c)
{
    push(Event::kSkipped, b, p, d, c);
}

void
TransferLog::onAccess(const uvm::VaBlock &b, const uvm::PageMask &p,
                      bool r, bool /*w*/, uvm::ProcessorId /*where*/)
{
    if (!log_accesses_)
        return;
    // Accesses reuse the direction field: reads pull device-ward.
    push(Event::kAccess, b, p,
         r ? interconnect::Direction::kHostToDevice
           : interconnect::Direction::kDeviceToHost,
         uvm::TransferCause::kGpuFault);
}

void
TransferLog::onDiscard(const uvm::VaBlock &b, const uvm::PageMask &p)
{
    push(Event::kDiscard, b, p,
         interconnect::Direction::kDeviceToHost,
         uvm::TransferCause::kEviction);
}

void
TransferLog::onFree(const uvm::VaBlock &b, const uvm::PageMask &p)
{
    push(Event::kFree, b, p, interconnect::Direction::kDeviceToHost,
         uvm::TransferCause::kEviction);
}

void
TransferLog::onFault(uvm::FaultEvent e, mem::VirtAddr base,
                     std::uint32_t pages)
{
    Event kind = Event::kFault;
    switch (e) {
      case uvm::FaultEvent::kDmaRetry:
        kind = Event::kRetry;
        break;
      case uvm::FaultEvent::kChunkRetired:
        kind = Event::kRetirement;
        break;
      case uvm::FaultEvent::kOomFallback:
        kind = Event::kOomFallback;
        break;
      default:
        break;
    }
    append() = Entry{next_ordinal_++, kind, base, pages,
                     interconnect::Direction::kDeviceToHost,
                     uvm::TransferCause::kEviction, e};
}

std::vector<TransferLog::Entry>
TransferLog::entriesFor(mem::VirtAddr addr) const
{
    mem::VirtAddr base = mem::alignDown(addr, mem::kBigPageSize);
    std::vector<Entry> result;
    forEach([&](const Entry &e) {
        if (e.block_base == base)
            result.push_back(e);
    });
    return result;
}

const char *
TransferLog::toString(Event e)
{
    switch (e) {
      case Event::kTransfer:
        return "transfer";
      case Event::kSkipped:
        return "skipped";
      case Event::kDiscard:
        return "discard";
      case Event::kFree:
        return "free";
      case Event::kAccess:
        return "access";
      case Event::kFault:
        return "fault";
      case Event::kRetry:
        return "retry";
      case Event::kRetirement:
        return "retirement";
      case Event::kOomFallback:
        return "oom_fallback";
    }
    return "?";
}

void
TransferLog::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        sim::warn("TransferLog::writeCsv: cannot open " + path);
        return;
    }
    std::fprintf(f, "ordinal,event,block,pages,direction,cause\n");
    forEach([&](const Entry &e) {
        bool is_fault = e.event == Event::kFault ||
                        e.event == Event::kRetry ||
                        e.event == Event::kRetirement ||
                        e.event == Event::kOomFallback;
        // Fault-class entries carry the fault detail where transfers
        // carry their cause; the column stays a plain string either
        // way, so the 6-column shape is preserved.
        std::fprintf(f, "%llu,%s,0x%llx,%u,%s,%s\n",
                     static_cast<unsigned long long>(e.ordinal),
                     toString(e.event),
                     static_cast<unsigned long long>(e.block_base),
                     e.pages, interconnect::toString(e.dir),
                     is_fault ? uvm::toString(e.fault)
                              : uvm::toString(e.cause));
    });
    std::fclose(f);
}

}  // namespace uvmd::trace
