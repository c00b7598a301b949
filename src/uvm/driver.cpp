#include "uvm/driver.hpp"

#include <algorithm>
#include <sstream>

#include "sim/logging.hpp"

namespace uvmd::uvm {

const char *
toString(TransferCause cause)
{
    switch (cause) {
      case TransferCause::kPrefetch:
        return "prefetch";
      case TransferCause::kGpuFault:
        return "gpu_fault";
      case TransferCause::kCpuFault:
        return "cpu_fault";
      case TransferCause::kEviction:
        return "eviction";
    }
    return "?";
}

const char *
toString(FaultEvent event)
{
    switch (event) {
      case FaultEvent::kDmaFault:
        return "dma_fault";
      case FaultEvent::kDmaRetry:
        return "dma_retry";
      case FaultEvent::kChunkRetired:
        return "chunk_retired";
      case FaultEvent::kAllocFail:
        return "alloc_fail";
      case FaultEvent::kOomFallback:
        return "oom_fallback";
      case FaultEvent::kLinkDegraded:
        return "link_degraded";
      case FaultEvent::kEngineOffline:
        return "engine_offline";
    }
    return "?";
}

UvmDriver::UvmDriver(const UvmConfig &cfg,
                     interconnect::LinkSpec link_spec,
                     interconnect::LinkSpec peer_spec)
    : cfg_(cfg), injector_(cfg.faults),
      peer_link_(std::move(peer_spec), cfg.copy_engines_per_dir),
      backing_(cfg.backed)
{
    if (cfg.num_gpus < 1)
        sim::fatal("UvmDriver: need at least one GPU");
    gpus_.reserve(cfg.num_gpus);
    for (int i = 0; i < cfg.num_gpus; ++i)
        gpus_.push_back(std::make_unique<GpuState>(cfg, link_spec));
    xfer_ = std::make_unique<TransferEngine>(cfg_, counters_);
    for (auto &g : gpus_)
        xfer_->addGpuLink(&g->link);
    xfer_->setPeerLink(&peer_link_);
    if (injector_.enabled())
        xfer_->setInjector(&injector_);
}

UvmDriver::GpuState &
UvmDriver::gpu(GpuId id)
{
    if (id < 0 || id >= static_cast<GpuId>(gpus_.size()))
        sim::panic("UvmDriver: bad GPU id");
    return *gpus_[id];
}

mem::VirtAddr
UvmDriver::allocManaged(sim::Bytes size, std::string name)
{
    ++counters_[UvmStat::managed_allocs];
    counters_[UvmStat::managed_bytes] += size;
    return va_space_.createRange(size, std::move(name));
}

bool
UvmDriver::tryFreeManaged(mem::VirtAddr base)
{
    VaRange *range = va_space_.rangeOf(base);
    if (!range || range->base != base)
        return false;

    for (auto &bp : range->blocks) {
        VaBlock &block = *bp;
        PageMask populated = block.populated();
        if (observer_ && populated.any())
            observer_->onFree(block, populated);
        if (block.has_gpu_chunk) {
            // Freed ranges hold no live data: the chunk goes straight
            // back to the free queue without a transfer.
            block.mapped_gpu.reset();
            block.resident_gpu.reset();
            releaseChunk(block);
        }
        PageMask held = block.cpu_pages_present | populated;
        backing_.dropPages(block.base, held, mem::CopySlot::kHost);
        backing_.dropPages(block.base, held, mem::CopySlot::kDevice);
    }
    ++counters_[UvmStat::managed_frees];
    va_space_.destroyRange(base);
    return true;
}

void
UvmDriver::reserveGpuMemory(GpuId id, sim::Bytes bytes)
{
    gpu(id).allocator.reserve(bytes);
}

bool
UvmDriver::tryReserveGpuMemory(GpuId id, sim::Bytes bytes)
{
    return gpu(id).allocator.tryReserve(bytes);
}

void
UvmDriver::unreserveGpuMemory(GpuId id, sim::Bytes bytes)
{
    gpu(id).allocator.unreserve(bytes);
}

mem::CopySlot
UvmDriver::residentSlot(const VaBlock &block, std::uint32_t page) const
{
    if (block.resident_gpu.test(page))
        return mem::CopySlot::kDevice;
    return mem::CopySlot::kHost;
}

void
UvmDriver::poke(mem::VirtAddr addr, const void *data, std::size_t len)
{
    if (!backing_.enabled())
        return;
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    while (len > 0) {
        VaBlock *block = va_space_.blockOf(addr);
        if (!block)
            sim::panic("poke: unmanaged address");
        std::uint32_t page = mem::pageIndexInBlock(addr);
        if (!block->populated().test(page))
            sim::panic("poke: page not populated (missing access "
                       "declaration?)");
        std::size_t in_page =
            mem::kSmallPageSize - addr % mem::kSmallPageSize;
        std::size_t n = len < in_page ? len : in_page;
        backing_.write(addr, bytes, n, residentSlot(*block, page));
        addr += n;
        bytes += n;
        len -= n;
    }
}

void
UvmDriver::peek(mem::VirtAddr addr, void *out, std::size_t len)
{
    auto *bytes = static_cast<std::uint8_t *>(out);
    while (len > 0) {
        VaBlock *block = va_space_.blockOf(addr);
        if (!block)
            sim::panic("peek: unmanaged address");
        std::uint32_t page = mem::pageIndexInBlock(addr);
        std::size_t in_page =
            mem::kSmallPageSize - addr % mem::kSmallPageSize;
        std::size_t n = len < in_page ? len : in_page;
        backing_.read(addr, bytes, n, residentSlot(*block, page));
        addr += n;
        bytes += n;
        len -= n;
    }
}

void
UvmDriver::pokeWords(mem::VirtAddr block_base, std::uint32_t lo,
                     std::span<const std::uint64_t> words)
{
    if (!backing_.enabled() || words.empty())
        return;
    const VaBlock *block = va_space_.blockOf(block_base);
    if (!block)
        sim::panic("poke: unmanaged address");
    if (words.size() > mem::kPagesPerBlock - lo)
        sim::panic("poke: span crosses a block boundary");
    const auto hi = static_cast<std::uint32_t>(lo + words.size());
    if ((mem::makeRunMask<mem::kPagesPerBlock>(lo, hi - 1) &
         ~block->populated())
            .any())
        sim::panic("poke: page not populated (missing access "
                   "declaration?)");
    backing_.writeWords(block->base, lo, block->resident_gpu, words);
}

void
UvmDriver::peekWords(mem::VirtAddr block_base, std::uint32_t lo,
                     std::span<std::uint64_t> words)
{
    if (words.empty())
        return;
    const VaBlock *block = va_space_.blockOf(block_base);
    if (!block)
        sim::panic("peek: unmanaged address");
    if (words.size() > mem::kPagesPerBlock - lo)
        sim::panic("peek: span crosses a block boundary");
    backing_.readWords(block->base, lo, block->resident_gpu, words);
}

void
UvmDriver::notifyAccess(const VaBlock &block, const PageMask &pages,
                        AccessKind kind, ProcessorId where)
{
    if (observer_) {
        observer_->onAccess(block, pages, reads(kind), writes(kind),
                            where);
    }
}

sim::Bytes
UvmDriver::trafficH2d() const
{
    sim::Bytes total = counters_[UvmStat::remote_read_bytes];
    for (auto r = UvmStat::bytes_h2d_prefetch; r <= UvmStat::bytes_h2d_raw;
         r = UvmStat(std::size_t(r) + 1))
        total += counters_[r];
    return total;
}

sim::Bytes
UvmDriver::trafficD2h() const
{
    sim::Bytes total = counters_[UvmStat::remote_write_bytes];
    for (auto r = UvmStat::bytes_d2h_prefetch; r <= UvmStat::bytes_d2h_raw;
         r = UvmStat(std::size_t(r) + 1))
        total += counters_[r];
    return total;
}

sim::Bytes
UvmDriver::totalTrafficBytes() const
{
    return trafficH2d() + trafficD2h();
}

namespace {

/** JSON object with each copy engine's busy time for one link. */
void
jsonEngines(std::ostream &os, const interconnect::Link &link)
{
    using interconnect::Direction;
    os << "{";
    for (Direction dir :
         {Direction::kHostToDevice, Direction::kDeviceToHost}) {
        if (dir == Direction::kDeviceToHost)
            os << ",";
        os << "\"" << interconnect::toString(dir) << "\":{\"busy\":[";
        for (int i = 0; i < link.enginesPerDir(); ++i) {
            if (i)
                os << ",";
            os << link.engineAt(dir, static_cast<std::uint32_t>(i))
                      .busyTime();
        }
        os << "]}";
    }
    os << "}";
}

}  // namespace

bool
UvmDriver::hashState(sim::Digest &d) const
{
    if (backing_.enabled() || injector_.enabled() ||
        cfg_.eviction_policy == EvictionPolicy::kRandom || progress_sink_)
        return false;
    // Left out: cfg_ (fixed for the run), counters_ and
    // invariant_violations_ (outputs), the zero engines (a cost model
    // and statistics), summary_walk_ (set only inside an op) and
    // next_alloc_ordinal_ (see the ranks below).
    va_space_.hashState(d);
    // Each queue adds its size and head, by block base; with each
    // block's successor (VaBlock::hashState) that fixes its order.
    std::vector<std::uint64_t> ordinals;
    for (const auto &g : gpus_) {
        g->allocator.hashState(d);
        g->link.hashState(d);
        for (const Queues::List *list :
             {&g->queues.unusedQueue(), &g->queues.usedQueue(),
              &g->queues.discardedQueue()}) {
            d.add(list->size());
            d.add(list->empty() ? 0 : list->front()->base);
            if (cfg_.eviction_policy != EvictionPolicy::kFifo)
                continue;
            for (VaBlock *b = list->front(); b; b = list->next(b))
                ordinals.push_back(b->alloc_ordinal);
        }
    }
    // FIFO victims are picked by allocation ordinal, which only counts
    // up: relabel each chunk holder, in queue visit order, by its
    // ordinal's rank.  No other policy reads the ordinals.
    if (!ordinals.empty()) {
        std::vector<std::uint64_t> sorted = ordinals;
        std::sort(sorted.begin(), sorted.end());
        for (std::uint64_t o : ordinals) {
            d.add(static_cast<std::uint64_t>(
                std::lower_bound(sorted.begin(), sorted.end(), o) -
                sorted.begin()));
        }
    }
    peer_link_.hashState(d);
    xfer_->hashState(d);
    return !observer_ || observer_->hashState(d);
}

void
UvmDriver::dumpStatsJson(std::ostream &os)
{
    os << "{\"invariant_violations\":" << invariant_violations_
       << ",\"uvm\":";
    counters_.group().dumpJson(os);
    os << ",\"gpus\":[";
    for (std::size_t i = 0; i < gpus_.size(); ++i) {
        GpuState &g = *gpus_[i];
        if (i)
            os << ",";
        os << "{\"copy_engines\":";
        jsonEngines(os, g.link);
        os << ",\"alloc\":";
        g.allocator.stats().dumpJson(os);
        os << ",\"zero\":";
        g.zero_engine.stats().dumpJson(os);
        os << ",\"chunks\":{\"total\":" << g.allocator.totalChunks()
           << ",\"allocated\":" << g.allocator.allocatedChunks()
           << ",\"reserved\":" << g.allocator.reservedChunks()
           << ",\"retired\":" << g.allocator.retiredChunks() << "}"
           << ",\"queues\":{\"unused\":"
           << g.queues.unusedQueue().size()
           << ",\"used\":" << g.queues.usedQueue().size()
           << ",\"discarded\":" << g.queues.discardedQueue().size()
           << "}}";
    }
    os << "],\"peer\":{\"copy_engines\":";
    jsonEngines(os, peer_link_);
    os << "}}\n";
}

std::vector<InvariantViolation>
UvmDriver::collectInvariantViolations()
{
    std::vector<InvariantViolation> out;
    std::vector<std::uint64_t> chunks(gpus_.size(), 0);
    auto add = [&](const char *code, const VaBlock *b,
                   std::uint32_t pages, std::string what) {
        out.push_back({code, b ? b->base : 0, pages,
                       b ? what + ": " + b->describe()
                         : std::move(what)});
    };
    auto count = [](const PageMask &m) {
        return static_cast<std::uint32_t>(m.count());
    };
    va_space_.forEachBlockAll([&](VaBlock &b) {
        // pagesIn() trusts valid to be the prefix [0, valid_pages).
        if (std::uint32_t n = count(b.valid);
            n != b.valid_pages || (b.valid >> b.valid_pages).any())
            add("valid-pages-stale", &b, n,
                "valid is not the prefix of " +
                    std::to_string(b.valid_pages) + " pages");
        if (PageMask m = b.resident_cpu & b.resident_gpu; m.any())
            add("residency-not-exclusive", &b, count(m),
                "pages resident on both CPU and GPU");
        if (b.resident_gpu.any() && !b.has_gpu_chunk)
            add("resident-without-chunk", &b, count(b.resident_gpu),
                "GPU-resident without a backing chunk");
        if (b.has_gpu_chunk) {
            if (b.owner_gpu < 0 ||
                b.owner_gpu >= static_cast<GpuId>(gpus_.size())) {
                add("chunk-without-owner", &b, 0,
                    "chunk owned by out-of-range GPU");
            } else {
                ++chunks[b.owner_gpu];
            }
            if (b.link.on == mem::QueueKind::kNone)
                add("chunk-off-queue", &b, 0,
                    "chunk not on any page queue");
        } else if (b.link.on != mem::QueueKind::kNone) {
            add("queued-without-chunk", &b, 0,
                "on a page queue with no chunk");
        }
        if (PageMask m = b.mapped_gpu & ~b.resident_gpu; m.any())
            add("mapped-not-resident-gpu", &b, count(m),
                "GPU mapping beyond GPU residency");
        if (PageMask m = b.mapped_cpu & ~b.resident_cpu; m.any())
            add("mapped-not-resident-cpu", &b, count(m),
                "CPU mapping beyond CPU residency");
        if (PageMask m = b.resident_cpu & ~b.cpu_pages_present; m.any())
            add("cpu-resident-without-page", &b, count(m),
                "CPU-resident without a host page");
        if (PageMask m = b.discarded & ~b.populated(); m.any())
            add("discarded-unpopulated", &b, count(m),
                "discard state on never-populated pages");
        if (PageMask m = b.discarded_lazily & ~b.resident_gpu; m.any())
            add("lazy-not-gpu-resident", &b, count(m),
                "lazily discarded pages not GPU-resident");
        if (PageMask m = b.populated() & ~b.valid; m.any())
            add("populated-outside-range", &b, count(m),
                "populated pages outside the valid range");
        switch (b.link.on) {
          case mem::QueueKind::kUnused:
            if (b.resident_gpu.any())
                add("unused-queue-with-residency", &b,
                    count(b.resident_gpu),
                    "unused-queue chunk holds resident pages");
            break;
          case mem::QueueKind::kDiscarded:
            if (!b.allGpuResidentDiscarded())
                add("discarded-queue-live-data", &b,
                    count(b.resident_gpu & ~b.discarded),
                    "discarded-queue chunk holds live data");
            break;
          case mem::QueueKind::kUsed:
            if (!b.resident_gpu.any())
                add("used-queue-without-residency", &b, 0,
                    "used-queue chunk holds no resident pages");
            break;
          case mem::QueueKind::kNone:
            break;
        }
        if (const VaRange *r = b.range; r->state != RangeState::kNone) {
            std::size_t i = (b.base - r->base) / mem::kBigPageSize;
            const VaBlock *next =
                i + 1 < r->blocks.size() ? r->blocks[i + 1] : nullptr;
            bool live = r->state == RangeState::kResident;
            bool mapped = r->state != RangeState::kDiscardedEager;
            // Pages whose masks differ from what the state claims.
            const PageMask &all = b.valid;
            PageMask none;
            PageMask off = (b.resident_gpu ^ all) |
                           (b.discarded ^ (live ? none : all)) |
                           (b.mapped_gpu ^ (mapped ? all : none)) |
                           b.mapped_cpu;
            if (!live)
                off |= b.discarded_lazily ^ (mapped ? all : none);
            if (!b.has_gpu_chunk || b.owner_gpu != r->summary_gpu ||
                off.any() ||
                b.link.on != (live ? mem::QueueKind::kUsed
                                   : mem::QueueKind::kDiscarded) ||
                (next && b.link.next != next))
                add("range-summary-stale", &b, count(off),
                    "range '" + r->name + "' claims gpu" +
                        std::to_string(r->summary_gpu) + " " +
                        (live ? "residency" : "discarded residency") +
                        " the block does not have");
        }
    });
    for (std::size_t i = 0; i < gpus_.size(); ++i) {
        const mem::ChunkAllocator &alloc = gpus_[i]->allocator;
        if (chunks[i] != alloc.allocatedChunks())
            add("chunk-accounting-mismatch", nullptr, 0,
                "gpu" + std::to_string(i) + ": blocks hold " +
                    std::to_string(chunks[i]) +
                    " chunks but the allocator reports " +
                    std::to_string(alloc.allocatedChunks()));
        if (alloc.allocatedChunks() + alloc.reservedChunks() +
                alloc.retiredChunks() >
            alloc.totalChunks())
            add("chunk-capacity-exceeded", nullptr, 0,
                "gpu" + std::to_string(i) +
                    ": allocated + reserved + retired > total");
    }
    return out;
}

void
UvmDriver::checkInvariants()
{
    std::vector<InvariantViolation> violations =
        collectInvariantViolations();
    invariant_violations_ += violations.size();
    if (violations.empty())
        return;
    if (cfg_.panic_on_violation) {
        const InvariantViolation &v = violations.front();
        sim::panic("invariant: " + v.code +
                   (v.detail.empty() ? "" : ": " + v.detail));
    }
    for (const InvariantViolation &v : violations)
        sim::warn("invariant violation: " + v.code + ": " + v.detail);
}

void
UvmDriver::markDiscarded(VaBlock &block, const PageMask &mask)
{
    dropSummary(block);
    PageMask delta = mask & ~block.discarded;
    block.discarded |= mask;
    if (observer_ && delta.any())
        observer_->onDiscardStateChange(block, delta, true);
}

void
UvmDriver::clearDiscarded(VaBlock &block, const PageMask &mask)
{
    PageMask delta = mask & block.discarded;
    if (delta.none())
        return;
    // Lazily discarded pages are discarded, so none of them is in a
    // mask that clears nothing.
    block.discarded_lazily &= ~mask;
    dropSummary(block);
    block.discarded &= ~mask;
    if (observer_)
        observer_->onDiscardStateChange(block, delta, false);
}

void
UvmDriver::setQueue(VaBlock &block, mem::QueueKind kind)
{
    mem::QueueKind from = block.link.on;
    if (from == kind)
        return;
    dropSummary(block);
    Queues &q = gpu(block.owner_gpu).queues;
    if (kind == mem::QueueKind::kNone)
        q.unlink(&block);
    else
        q.placeOn(&block, kind);
    if (observer_)
        observer_->onQueueMove(block, from, kind);
}

VaRange *
UvmDriver::wholeRange(mem::VirtAddr addr, sim::Bytes size)
{
    VaRange *range = va_space_.rangeOf(addr);
    return range && range->base == addr && range->size == size ? range
                                                               : nullptr;
}

void
UvmDriver::SummaryWalk::finish()
{
    if (range_ && last_ == range_->blocks.back()) {
        range_->state = RangeState::kResident;
        range_->summary_gpu = gpu_;
    }
}

}  // namespace uvmd::uvm
