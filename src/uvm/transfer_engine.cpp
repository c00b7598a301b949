#include "uvm/transfer_engine.hpp"

#include "sim/logging.hpp"

namespace uvmd::uvm {

using interconnect::Direction;

TransferEngine::TransferEngine(const UvmConfig &cfg, UvmStats &counters)
    : cfg_(cfg), counters_(counters)
{}

void
TransferEngine::addGpuLink(interconnect::Link *link)
{
    gpu_links_.push_back(link);
    tails_.assign(gpu_links_.size() + 1, {});
}

void
TransferEngine::setPeerLink(interconnect::Link *peer)
{
    peer_link_ = peer;
}

void
TransferEngine::beginBatch()
{
    if (batch_depth_++ == 0)
        tails_.assign(tails_.size(), {});
}

void
TransferEngine::endBatch()
{
    if (batch_depth_ <= 0)
        sim::panic("TransferEngine: unbalanced batch scope");
    if (--batch_depth_ == 0)
        tails_.assign(tails_.size(), {});
}

interconnect::Link &
TransferEngine::linkFor(const TransferRequest &req)
{
    if (req.peer) {
        if (!peer_link_)
            sim::panic("TransferEngine: peer link not wired");
        return *peer_link_;
    }
    if (req.gpu < 0 ||
        req.gpu >= static_cast<GpuId>(gpu_links_.size()))
        sim::panic("TransferEngine: bad GPU id");
    return *gpu_links_[req.gpu];
}

std::size_t
TransferEngine::linkIndex(const TransferRequest &req) const
{
    return req.peer ? gpu_links_.size()
                    : static_cast<std::size_t>(req.gpu);
}

void
TransferEngine::hashState(sim::Digest &d) const
{
    d.add(static_cast<std::uint64_t>(batch_depth_));
    for (const std::array<Tail, 2> &pair : tails_) {
        for (const Tail &t : pair) {
            d.add(t.valid);
            d.add(t.end_addr);
            d.add(t.engine);
        }
    }
}

void
TransferEngine::invalidateTail(std::size_t link_idx, Direction dir)
{
    if (link_idx < tails_.size())
        tails_[link_idx][static_cast<std::size_t>(dir)] = Tail{};
}

sim::SimTime
TransferEngine::submit(const TransferRequest &req, sim::SimTime start)
{
    if (!req.block)
        sim::panic("TransferEngine: request without a block");
    if (req.pages.none())
        return start;

    interconnect::Link &link = linkFor(req);
    const VaBlock &blk = *req.block;
    const VaBlock::Span span = blk.spanOf(req.pages);
    sim::Bytes bytes = span.pages * mem::kSmallPageSize;

    // Span of the mask in virtual-address terms, for cross-block
    // coalescing: the first descriptor of this request can merge with
    // the previous request's last descriptor when the two are
    // virtually contiguous (the adjacent-block case of one prefetch).
    mem::VirtAddr first_addr =
        blk.base + span.first * mem::kSmallPageSize;
    mem::VirtAddr end_addr =
        blk.base + (span.last + 1) * mem::kSmallPageSize;

    Tail &tail = tails_[linkIndex(req)][static_cast<std::size_t>(
        req.dir)];
    bool merge = cfg_.coalesce_transfers && batch_depth_ > 0 &&
                 tail.valid && tail.end_addr == first_addr &&
                 !link.engineOffline(req.dir, tail.engine);
    std::uint32_t new_descriptors = merge ? span.runs - 1 : span.runs;
    std::uint32_t engine =
        merge ? tail.engine : link.pickEngine(req.dir);

    sim::SimTime done =
        link.issueOn(engine, req.dir, start, bytes, new_descriptors);
    if (injector_ && injector_->enabled()) {
        done = injectDmaRetries(
            link, engine, req.dir, bytes, new_descriptors, done,
            byCause(UvmStat::transfer_retries_prefetch, req.cause),
            blk.base, span.pages);
    }

    counters_[UvmStat::dma_descriptors] += new_descriptors;
    if (merge)
        ++counters_[UvmStat::dma_descriptors_coalesced];
    if (req.peer) {
        counters_[UvmStat::bytes_d2d] += bytes;
    } else {
        counters_[byCause(req.dir == Direction::kHostToDevice
                              ? UvmStat::bytes_h2d_prefetch
                              : UvmStat::bytes_d2h_prefetch,
                          req.cause)] += bytes;
    }
    if (observer_)
        observer_->onTransfer(blk, req.pages, req.dir, req.cause);

    tail = Tail{true, end_addr, engine};
    if (injector_ && injector_->enabled())
        applyLinkEvents(done);
    return done;
}

sim::SimTime
TransferEngine::injectDmaRetries(interconnect::Link &link,
                                 std::uint32_t engine, Direction dir,
                                 sim::Bytes bytes,
                                 std::uint32_t new_descriptors,
                                 sim::SimTime done,
                                 UvmStat cause_retries,
                                 mem::VirtAddr block_base,
                                 std::uint32_t pages)
{
    if (new_descriptors == 0)
        return done;
    // A retry re-transfers one descriptor's span, not the whole
    // request; approximate the span as an even split.
    sim::Bytes per_desc = bytes / new_descriptors;
    for (std::uint32_t d = 0; d < new_descriptors; ++d) {
        int attempt = 0;
        while (injector_->dmaDescriptorFails()) {
            ++counters_[UvmStat::fault_injected];
            if (observer_)
                observer_->onFault(FaultEvent::kDmaFault, block_base,
                                   pages);
            if (attempt >= injector_->plan().dma_max_retries)
                sim::fatal("TransferEngine: DMA descriptor failed "
                           "permanently (retries exhausted)");
            // Exponential backoff, modelled as engine idle time.
            sim::SimDuration backoff =
                injector_->plan().dma_retry_backoff *
                (sim::SimDuration{1} << attempt);
            sim::SimTime before = done;
            done = link.issueOn(engine, dir, done + backoff, per_desc, 1);
            ++counters_[UvmStat::transfer_retries];
            ++counters_[cause_retries];
            counters_[UvmStat::transfer_retry_ns] += done - before;
            if (observer_)
                observer_->onFault(FaultEvent::kDmaRetry, block_base,
                                   pages);
            ++attempt;
        }
    }
    return done;
}

void
TransferEngine::applyLinkEvents(sim::SimTime now)
{
    // The events' threshold counts first issues on every wired link,
    // raw and peer descriptors included, and never retries.
    for (const sim::LinkFaultEvent &ev : injector_->takeDueLinkEvents(
             counters_[UvmStat::dma_descriptors] +
             counters_[UvmStat::raw_transfers])) {
        interconnect::Link *link = nullptr;
        std::size_t link_idx = 0;
        if (ev.gpu < 0) {
            link = peer_link_;
            link_idx = gpu_links_.size();
        } else if (ev.gpu <
                   static_cast<int>(gpu_links_.size())) {
            link = gpu_links_[ev.gpu];
            link_idx = static_cast<std::size_t>(ev.gpu);
        }
        if (!link)
            continue;  // event targets a link this run doesn't have

        // Tally through the injector exactly what was applied, so
        // fault_injected reconciles with the injector's own book.
        sim::LinkFaultEvent applied = ev;
        applied.bandwidth_factor = 1.0;
        applied.offline_engine = -1;

        if (ev.bandwidth_factor < 1.0) {
            link->scaleBandwidth(ev.bandwidth_factor);
            applied.bandwidth_factor = ev.bandwidth_factor;
            ++counters_[UvmStat::fault_injected];
            if (observer_)
                observer_->onFault(FaultEvent::kLinkDegraded, 0, 0);
        }
        if (ev.offline_engine >= 0) {
            Direction dir = ev.offline_dir == 0
                                ? Direction::kHostToDevice
                                : Direction::kDeviceToHost;
            if (link->setEngineOffline(
                    dir, static_cast<std::uint32_t>(ev.offline_engine),
                    now)) {
                invalidateTail(link_idx, dir);
                applied.offline_engine = ev.offline_engine;
                ++counters_[UvmStat::fault_injected];
                if (observer_)
                    observer_->onFault(FaultEvent::kEngineOffline, 0,
                                       0);
            }
        }
        injector_->noteLinkEventApplied(applied);
    }
}

sim::SimTime
TransferEngine::rawTransfer(GpuId gpu, sim::Bytes bytes,
                            Direction dir, UvmStat row,
                            sim::SimTime start)
{
    if (gpu < 0 || gpu >= static_cast<GpuId>(gpu_links_.size()))
        sim::panic("TransferEngine: bad GPU id");
    // A foreign descriptor lands on the engine timeline: whatever
    // coalescing tail was open for this link/direction is broken.
    invalidateTail(static_cast<std::size_t>(gpu), dir);
    interconnect::Link &link = *gpu_links_[gpu];
    std::uint32_t engine = link.pickEngine(dir);
    sim::SimTime done = link.issueOn(engine, dir, start, bytes, 1);
    counters_[row] += bytes;
    ++counters_[UvmStat::raw_transfers];
    if (injector_ && injector_->enabled()) {
        done = injectDmaRetries(link, engine, dir, bytes, 1, done,
                                UvmStat::transfer_retries_raw, 0, 0);
        applyLinkEvents(done);
    }
    return done;
}

}  // namespace uvmd::uvm
