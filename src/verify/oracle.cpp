#include "verify/oracle.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "mem/page.hpp"
#include "verify/snapshot.hpp"

namespace uvmd::verify {

namespace {

std::string
join(const std::vector<std::string> &parts, const char *sep)
{
    std::string out;
    for (const auto &p : parts) {
        if (!out.empty())
            out += sep;
        out += p;
    }
    return out;
}

}  // namespace

// ------------------------------------------------------------------
// Failure plumbing
// ------------------------------------------------------------------

void
Oracle::fail(const std::string &kind, const std::string &detail)
{
    const std::string op_text =
        op_tokens_ ? join(*op_tokens_, " ") : op_label_;
    std::ostringstream os;
    os << "{\"kind\":\"" << jsonEscape(kind) << "\""
       << ",\"op\":{\"index\":" << op_index_
       << ",\"line\":" << op_line_ << ",\"text\":\""
       << jsonEscape(op_text) << "\"}"
       << ",\"detail\":\"" << jsonEscape(detail) << "\""
       << ",\"checks_run\":" << checks_ << ",\"snapshot\":";
    if (rt_)
        dumpDriverStateJson(os, rt_->driver());
    else
        os << "null";
    os << "}";
    throw VerificationError("oracle divergence [" + kind + "] after '" +
                                op_text + "': " + detail,
                            os.str());
}

void
Oracle::deferFail(const std::string &kind, const std::string &detail)
{
    pending_.push_back(kind + ": " + detail);
}

// ------------------------------------------------------------------
// Event stream -> mirror
// ------------------------------------------------------------------

void
Oracle::onTransfer(const uvm::VaBlock &block, const uvm::PageMask &pages,
                   interconnect::Direction dir, uvm::TransferCause)
{
    ++checks_;
    reported_[static_cast<std::size_t>(dir)] +=
        block.pagesIn(pages) * mem::kSmallPageSize;
    // G3: the paper's core claim — discarded data never travels.  The
    // driver computes every transfer mask as `... & ~discarded`; the
    // mirror's copy of the dirty bits must agree at submit time.
    uvm::PageMask bad = pages & mirrorOf(block).discarded;
    if (bad.any()) {
        deferFail("transfer-of-discarded",
                  "block " + std::to_string(block.base) +
                      " transferred discarded pages " + maskToRuns(bad));
    }
}

void
Oracle::onTransferSkipped(const uvm::VaBlock &block,
                          const uvm::PageMask &pages,
                          interconnect::Direction dir,
                          uvm::TransferCause)
{
    ++checks_;
    reported_[2 + static_cast<std::size_t>(dir)] +=
        block.pagesIn(pages) * mem::kSmallPageSize;
    // G3: every skip must be justified by the discard state the
    // mirror observed (skips of live data would be data loss).
    uvm::PageMask bad = pages & ~mirrorOf(block).discarded;
    if (bad.any()) {
        deferFail("unjustified-skip",
                  "block " + std::to_string(block.base) +
                      " skipped non-discarded pages " + maskToRuns(bad));
    }
}

void
Oracle::onAccess(const uvm::VaBlock &, const uvm::PageMask &, bool, bool,
                 uvm::ProcessorId)
{}

void
Oracle::onDiscard(const uvm::VaBlock &block, const uvm::PageMask &pages)
{
    discard_targets_[block.base] |= pages;
}

void
Oracle::onFree(const uvm::VaBlock &block, const uvm::PageMask &)
{
    // Only the content tags go here: freeing releases the chunk right
    // after this event, and that queue-move must still match the
    // mirror.  The mirror entry itself is pruned by checkAll's sweep
    // once the block has left the VA space.
    dropTags(block.base, mem::kBigPageSize);
}

void
Oracle::onFault(uvm::FaultEvent event, mem::VirtAddr, std::uint32_t)
{
    // An OOM-served prefetch legitimately leaves its pages discarded
    // (the migration was skipped wholesale); the G2 postcondition for
    // this op is waived.
    if (event == uvm::FaultEvent::kOomFallback)
        oom_fallback_this_op_ = true;
}

void
Oracle::onMap(const uvm::VaBlock &block, const uvm::PageMask &pages,
              uvm::ProcessorId where)
{
    BlockMirror &m = mirrorOf(block);
    uvm::PageMask &mapped = where.isGpu() ? m.mapped_gpu : m.mapped_cpu;
    ++checks_;
    uvm::PageMask dup = pages & mapped;
    if (dup.any()) {
        deferFail("double-map", "block " + std::to_string(block.base) +
                                    " re-mapped already-mapped pages " +
                                    maskToRuns(dup) + " on " +
                                    where.toString());
    }
    mapped |= pages;
}

void
Oracle::onUnmap(const uvm::VaBlock &block, const uvm::PageMask &pages,
                uvm::ProcessorId where)
{
    BlockMirror &m = mirrorOf(block);
    uvm::PageMask &mapped = where.isGpu() ? m.mapped_gpu : m.mapped_cpu;
    ++checks_;
    uvm::PageMask stray = pages & ~mapped;
    if (stray.any()) {
        deferFail("unmap-of-unmapped",
                  "block " + std::to_string(block.base) +
                      " unmapped never-mapped pages " +
                      maskToRuns(stray) + " on " + where.toString());
    }
    mapped &= ~pages;
}

void
Oracle::onDiscardStateChange(const uvm::VaBlock &block,
                             const uvm::PageMask &pages, bool discarded)
{
    BlockMirror &m = mirrorOf(block);
    ++checks_;
    // The contract says only actual transitions are reported.
    uvm::PageMask bad =
        discarded ? (pages & m.discarded) : (pages & ~m.discarded);
    if (bad.any()) {
        deferFail("non-transition",
                  "block " + std::to_string(block.base) + " reported " +
                      (discarded ? "discard" : "re-arm") +
                      " of pages already in that state: " +
                      maskToRuns(bad));
    }
    if (discarded)
        m.discarded |= pages;
    else
        m.discarded &= ~pages;
}

void
Oracle::onQueueMove(const uvm::VaBlock &block, mem::QueueKind from,
                    mem::QueueKind to)
{
    BlockMirror &m = mirrorOf(block);
    ++checks_;
    if (from != m.queue) {
        deferFail("queue-move-source",
                  "block " + std::to_string(block.base) +
                      " reported a move from " +
                      std::string(mem::toString(from)) +
                      " but the mirror has it on " +
                      std::string(mem::toString(m.queue)));
    }
    m.queue = to;
}

// ------------------------------------------------------------------
// Per-op cross-check
// ------------------------------------------------------------------

mem::QueueKind
Oracle::expectedQueue(const uvm::VaBlock &block,
                      const uvm::UvmConfig &cfg)
{
    // Independent restatement of the Section 5.1/5.5 requeue rule.
    if (!block.has_gpu_chunk)
        return mem::QueueKind::kNone;
    if (block.allGpuResidentDiscarded() && cfg.discard_queue_enabled)
        return mem::QueueKind::kDiscarded;
    if (block.resident_gpu.any())
        return mem::QueueKind::kUsed;
    return mem::QueueKind::kUnused;
}

void
Oracle::checkBlock(const uvm::VaBlock &b, const uvm::UvmConfig &cfg)
{
    static const BlockMirror kEmpty{};
    auto it = mirror_.find(b.base);
    const BlockMirror &m = it == mirror_.end() ? kEmpty : it->second;
    auto where = [&] { return "block " + std::to_string(b.base); };

    // G1: event-built mirror == driver state.
    check(b.mapped_cpu == m.mapped_cpu, "mirror-mapped-cpu", [&] {
        return where() + ": driver mapped_cpu [" +
               maskToRuns(b.mapped_cpu) + "] != mirror [" +
               maskToRuns(m.mapped_cpu) + "]";
    });
    check(b.mapped_gpu == m.mapped_gpu, "mirror-mapped-gpu", [&] {
        return where() + ": driver mapped_gpu [" +
               maskToRuns(b.mapped_gpu) + "] != mirror [" +
               maskToRuns(m.mapped_gpu) + "]";
    });
    check(b.discarded == m.discarded, "mirror-discarded", [&] {
        return where() + ": driver discarded [" +
               maskToRuns(b.discarded) + "] != mirror [" +
               maskToRuns(m.discarded) + "]";
    });
    check(b.link.on == m.queue, "mirror-queue", [&] {
        return where() + ": driver queue " +
               std::string(mem::toString(b.link.on)) + " != mirror " +
               std::string(mem::toString(m.queue));
    });

    // Queue placement recomputed from first principles.
    mem::QueueKind want = expectedQueue(b, cfg);
    check(b.link.on == want, "queue-rule", [&] {
        return where() + ": on queue " +
               std::string(mem::toString(b.link.on)) +
               " but the discard/residency state requires " +
               std::string(mem::toString(want)) + " (resident_gpu [" +
               maskToRuns(b.resident_gpu) + "], discarded [" +
               maskToRuns(b.discarded) + "])";
    });

    // G5 (oracle-derived): a pinned host copy only exists for pages
    // that are populated somewhere — an eviction that drops residency
    // without dropping the copy (or vice versa) shows up here.
    uvm::PageMask orphaned = b.cpu_pages_present & ~b.populated();
    check(orphaned.none(), "orphaned-cpu-copy", [&] {
        return where() + ": cpu_pages_present pages " +
               maskToRuns(orphaned) + " are not resident anywhere";
    });

    // Derived: lazily-discarded is a refinement of discarded, and
    // only meaningful for GPU-resident pages.
    uvm::PageMask stray_lazy = b.discarded_lazily & ~b.discarded;
    check(stray_lazy.none(), "lazy-not-discarded", [&] {
        return where() + ": discarded_lazily pages " +
               maskToRuns(stray_lazy) + " are not in discarded";
    });
}

void
Oracle::checkAll(cuda::Runtime &rt)
{
    uvm::UvmDriver &driver = rt.driver();

    // G5: the driver's own structural self-audit must be clean.
    auto violations = driver.collectInvariantViolations();
    ++checks_;
    if (!violations.empty()) {
        std::string detail;
        for (const auto &v : violations) {
            if (!detail.empty())
                detail += "; ";
            detail += v.code + " @" + std::to_string(v.block) + " (" +
                      v.detail + ")";
        }
        fail("invariant", detail);
    }

    const uvm::UvmConfig &cfg = driver.config();
    std::set<mem::VirtAddr> seen;
    driver.vaSpace().forEachBlockAll([&](uvm::VaBlock &b) {
        seen.insert(b.base);
        checkBlock(b, cfg);
    });

    // Blocks gone from the VA space (freed ranges) leave the mirror.
    for (auto it = mirror_.begin(); it != mirror_.end();) {
        if (seen.count(it->first))
            ++it;
        else
            it = mirror_.erase(it);
    }
}

bool
Oracle::settle(cuda::Runtime &rt)
{
    rt_ = &rt;
    // Failures spotted inside hooks surface here, outside any driver
    // mutation, so the snapshot below reflects a settled state.
    if (!pending_.empty()) {
        std::string joined = join(pending_, " | ");
        pending_.clear();
        fail("event-stream", joined);
    }

    // A sticky CUDA error means this op's work was (partially)
    // refused: its postconditions don't apply, and any data contents
    // are no longer vouched for.  The error itself is defined
    // behaviour, not a divergence.
    bool errored = rt.getLastError() != cuda::CudaError::kSuccess;
    if (errored)
        defined_.clear();
    return errored;
}

void
Oracle::afterOp(const workloads::ScenarioOp &op, cuda::Runtime &rt)
{
    op_index_ = op.index;
    op_line_ = op.line_no;
    op_tokens_ = op.tokens;
    if (!settle(rt))
        checkOp(op, rt);
    checkAll(rt);

    discard_targets_.clear();
    oom_fallback_this_op_ = false;
}

void
Oracle::checkOp(const workloads::ScenarioOp &op, cuda::Runtime &rt)
{
    using Kind = workloads::ScenarioOp::Kind;
    if (op.kind == Kind::kDiscard) {
        // G2: every page the driver reported as discarded must
        // actually carry a cleared dirty bit now.
        for (const auto &[base, mask] : discard_targets_) {
            uvm::VaBlock *b = rt.driver().vaSpace().blockOf(base);
            if (!b)
                continue;
            uvm::PageMask missing = mask & ~b->discarded;
            check(missing.none(), "discard-not-applied", [&] {
                return "block " + std::to_string(base) + ": pages " +
                       maskToRuns(missing) +
                       " reported discarded but the dirty bit is still "
                       "set";
            });
        }
    }

    // G4 tags exist only when check_content_ is set (plantTags is the
    // one place that makes them), so verifying or dropping them is a
    // no-op otherwise.
    for (const uvm::Access &s : op.spans) {
        switch (op.kind) {
        case Kind::kPrefetch:
            // G2: Section 5.2 — a prefetch is the re-arming operation;
            // afterwards no page it covered may still be discarded.
            if (oom_fallback_this_op_)
                break;
            rt.driver().vaSpace().forEachBlock(
                s.addr, s.size,
                [&](uvm::VaBlock &b, const uvm::PageMask &msk) {
                    uvm::PageMask still = msk & b.discarded;
                    check(still.none(), "prefetch-left-discarded", [&] {
                        return "block " + std::to_string(b.base) +
                               ": pages " + maskToRuns(still) +
                               " still discarded after a successful "
                               "prefetch";
                    });
                });
            break;
        case Kind::kHostWrite:
            if (check_content_)
                plantTags(rt, s.addr, s.size);
            break;
        case Kind::kHostRead:
            verifyTags(rt, s.addr, s.size);
            break;
        case Kind::kKernel:
            // Read spans must still carry intact data wherever they
            // now live; written ones hold unknown values (the sim
            // kernel writes no real bytes, so only invalidate).
            if (s.kind == uvm::AccessKind::kRead)
                verifyTags(rt, s.addr, s.size);
            else
                dropTags(s.addr, s.size);
            break;
        case Kind::kDiscard:  // dead by contract (Section 4.1)
        case Kind::kAlloc:    // a recycled VA must not inherit tags
            dropTags(s.addr, s.size);
            break;
        case Kind::kFree:  // onFree drops the freed blocks' tags
        case Kind::kAdvise:
        case Kind::kSync:
            break;
        }
    }
}

void
Oracle::finalCheck(cuda::Runtime &rt)
{
    op_tokens_ = nullptr;
    op_label_ = "<final>";
    settle(rt);
    verifyAllTags(rt);
    checkAll(rt);

    // G6: the events and the driver's ledger count the same bytes.
    // Peer moves are reported device-ward, peer skips host-ward.
    using uvm::UvmStat;
    auto row = [&](UvmStat r) { return rt.driver().counter(r); };
    auto causes = [&](UvmStat first) {
        sim::Bytes sum = 0;
        for (int c = 0; c <= int(uvm::TransferCause::kEviction); ++c)
            sum += row(uvm::byCause(first, uvm::TransferCause(c)));
        return sum;
    };
    const sim::Bytes ledger[] = {
        causes(UvmStat::bytes_h2d_prefetch) + row(UvmStat::bytes_d2d),
        causes(UvmStat::bytes_d2h_prefetch),
        row(UvmStat::saved_h2d_bytes),
        row(UvmStat::saved_d2h_bytes) + row(UvmStat::saved_d2d_bytes)};
    for (std::size_t i = 0; i < 4; ++i) {
        check(reported_[i] == ledger[i], "ledger", [&] {
            return std::string(i < 2 ? "moved " : "skipped ") +
                   (i % 2 ? "d2h" : "h2d") + ": events report " +
                   std::to_string(reported_[i]) + " bytes, counters " +
                   std::to_string(ledger[i]);
        });
    }
}

// ------------------------------------------------------------------
// G4: content generation tags
// ------------------------------------------------------------------

std::uint64_t
Oracle::tagFor(mem::VirtAddr page_va, std::uint64_t gen)
{
    // splitmix64 over (va, gen): cheap, deterministic, and any
    // corruption (zero-fill, stale copy, cross-page splice) is
    // overwhelmingly unlikely to reproduce the expected value.
    std::uint64_t x = page_va * 0x9e3779b97f4a7c15ULL + gen;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

namespace {

/** Pages p of the block at @p base whose start base + p * 4 KB lies
 *  in [addr, end), as the half-open index span [first, second). */
std::pair<std::uint32_t, std::uint32_t>
pageSpan(mem::VirtAddr base, mem::VirtAddr addr, mem::VirtAddr end)
{
    auto index = [&](mem::VirtAddr va) {
        if (va <= base)
            return std::uint32_t{0};
        return static_cast<std::uint32_t>(std::min<mem::VirtAddr>(
            (va - base + mem::kSmallPageSize - 1) / mem::kSmallPageSize,
            mem::kPagesPerBlock));
    };
    return {index(addr), index(end)};
}

}  // namespace

void
Oracle::plantTags(cuda::Runtime &rt, mem::VirtAddr addr,
                  sim::Bytes size)
{
    if (!mem::isAligned(addr, mem::kSmallPageSize))
        sim::panic("Oracle::plantTags: buffer is not page-aligned");
    std::uint64_t gen = ++generation_;
    if (size < sizeof(std::uint64_t))
        return;
    // Pages whose first 8 bytes lie in the buffer.
    const mem::VirtAddr last = addr + size - sizeof(std::uint64_t);
    std::array<std::uint64_t, mem::kPagesPerBlock> words;
    for (mem::VirtAddr base = mem::alignDown(addr, mem::kBigPageSize);
         base <= last; base += mem::kBigPageSize) {
        auto [lo, hi] = pageSpan(base, addr, last + 1);
        BlockTags &tags = defined_[base];
        for (std::uint32_t p = lo; p < hi; ++p) {
            words[p - lo] = tagFor(base + p * mem::kSmallPageSize, gen);
            std::uint64_t &g = tags.gen[p];
            tags.live += g == 0;
            g = gen;
        }
        rt.driver().pokeWords(base, lo, {words.data(), hi - lo});
    }
}

void
Oracle::verifyBlockTags(cuda::Runtime &rt, mem::VirtAddr base,
                        const BlockTags &tags, std::uint32_t lo,
                        std::uint32_t hi, const char *when)
{
    // Narrow [lo, hi) to the tagged pages and read them in one call.
    while (lo < hi && tags.gen[lo] == 0)
        ++lo;
    while (hi > lo && tags.gen[hi - 1] == 0)
        --hi;
    if (lo == hi)
        return;
    std::array<std::uint64_t, mem::kPagesPerBlock> words;
    rt.driver().peekWords(base, lo, {words.data(), hi - lo});
    for (std::uint32_t p = lo; p < hi; ++p) {
        const std::uint64_t gen = tags.gen[p];
        if (gen == 0)
            continue;
        ++checks_;
        const mem::VirtAddr va = base + p * mem::kSmallPageSize;
        std::uint64_t want = tagFor(va, gen);
        std::uint64_t got = words[p - lo];
        if (got != want) {
            std::ostringstream os;
            os << "page " << va << " (generation " << gen
               << "): expected tag " << want << ", read " << got << when;
            fail("content", os.str());
        }
    }
}

void
Oracle::verifyTags(cuda::Runtime &rt, mem::VirtAddr addr,
                   sim::Bytes size)
{
    const mem::VirtAddr end = addr + size;
    for (auto it = defined_.lower_bound(
             mem::alignDown(addr, mem::kBigPageSize));
         it != defined_.end() && it->first < end; ++it) {
        auto [lo, hi] = pageSpan(it->first, addr, end);
        verifyBlockTags(rt, it->first, it->second, lo, hi,
                        " — host-written data was lost or corrupted in "
                        "flight");
    }
}

void
Oracle::verifyAllTags(cuda::Runtime &rt)
{
    for (const auto &[base, tags] : defined_)
        verifyBlockTags(rt, base, tags, 0, mem::kPagesPerBlock,
                        " at end of scenario");
}

void
Oracle::dropTags(mem::VirtAddr addr, sim::Bytes size)
{
    const mem::VirtAddr end = addr + size;
    auto it = defined_.lower_bound(mem::alignDown(addr, mem::kBigPageSize));
    while (it != defined_.end() && it->first < end) {
        auto [lo, hi] = pageSpan(it->first, addr, end);
        BlockTags &tags = it->second;
        for (std::uint32_t p = lo; p < hi; ++p) {
            tags.live -= tags.gen[p] != 0;
            tags.gen[p] = 0;
        }
        it = tags.live == 0 ? defined_.erase(it) : std::next(it);
    }
}

}  // namespace uvmd::verify
