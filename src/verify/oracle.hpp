/**
 * @file
 * Differential verification oracle for the UVM-discard driver.
 *
 * The Oracle is an independent, deliberately simple reference model of
 * the discard semantics the paper specifies.  It attaches to the
 * driver as a TransferObserver and mirrors the per-4KB-page state
 * machine — mappings, the software dirty bit (`discarded`), and the
 * Section 5.5 queue membership — purely from the event stream, then
 * cross-checks the mirror against the driver's real state after every
 * scenario operation.  Because mirror and driver compute the same
 * state through disjoint code paths, a divergence means one of them
 * is wrong; the shipped driver has to win the argument on every
 * event, every run.
 *
 * Checked properties, grouped:
 *
 *  G1 *state equality*: driver mapped_cpu/mapped_gpu/discarded masks
 *     and queue membership equal the event-built mirror, block by
 *     block (catches mutations that bypass the observer spine).
 *  G2 *operation postconditions*: a prefetch re-arms every discarded
 *     page it covers (Section 5.2's mandatory-prefetch contract —
 *     exempting OOM-fallback/errored prefetches, which legitimately
 *     skip); a discard's reported target pages are dirty-bit-clear
 *     afterwards.
 *  G3 *transfer legality*: no transfer ever moves a discarded page
 *     (the paper's entire point), and every skip is justified by the
 *     discard state at skip time.
 *  G4 *content integrity* (backed runs): host-written pages carry a
 *     generation tag; the tag must survive any amount of migration,
 *     eviction and fault recovery until a discard, kernel write, or
 *     free declares the data dead.
 *  G5 *structural invariants*: UvmDriver::collectInvariantViolations
 *     must stay empty, plus the oracle's own derived rule that a
 *     pinned CPU copy implies the page is populated somewhere
 *     (cpu_pages_present ⊆ resident_cpu ∪ resident_gpu).
 *  G6 *traffic ledger* (final check): the bytes the events reported
 *     moved and skipped, per direction, equal the driver's bytes_*,
 *     bytes_d2d and saved_*_bytes rows (so the Oracle must observe
 *     the run from its first transfer, as ScenarioHooks attaches it).
 *
 * On first divergence a VerificationError is thrown carrying a JSON
 * report with the failing check, the op that exposed it, and a full
 * CRUM-style driver snapshot (verify/snapshot.hpp) — the artifact the
 * fuzzer stores next to the shrunken reproducer.
 */

#ifndef UVMD_VERIFY_ORACLE_HPP
#define UVMD_VERIFY_ORACLE_HPP

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cuda/runtime.hpp"
#include "workloads/scenario.hpp"

namespace uvmd::verify {

/** Thrown on the first oracle/driver divergence; `report` is a JSON
 *  artifact sufficient to diagnose the failure offline. */
class VerificationError : public sim::FatalError
{
  public:
    VerificationError(const std::string &what, std::string report_json)
        : sim::FatalError(what), report(std::move(report_json))
    {}

    std::string report;
};

class Oracle : public uvm::TransferObserver
{
  public:
    /** @p check_content enables the G4 generation-tag checks (needs a
     *  backed runtime; pure timing runs should pass false). */
    explicit Oracle(bool check_content = true)
        : check_content_(check_content)
    {}

    // ---- wiring (used by runVerified / ScenarioHooks) ----

    /** Bind the runtime under test (once it exists). */
    void attachRuntime(cuda::Runtime &rt) { rt_ = &rt; }

    /** Full cross-check after one scenario op (sync'd state). */
    void afterOp(const workloads::ScenarioOp &op, cuda::Runtime &rt);

    /** Final sweep after the last synchronize. */
    void finalCheck(cuda::Runtime &rt);

    /** Total individual checks evaluated (for reporting). */
    std::uint64_t checksRun() const { return checks_; }

    // ---- TransferObserver: the event stream the mirror feeds on ----

    void onTransfer(const uvm::VaBlock &block,
                    const uvm::PageMask &pages,
                    interconnect::Direction dir,
                    uvm::TransferCause cause) override;
    void onTransferSkipped(const uvm::VaBlock &block,
                           const uvm::PageMask &pages,
                           interconnect::Direction dir,
                           uvm::TransferCause cause) override;
    void onAccess(const uvm::VaBlock &block, const uvm::PageMask &pages,
                  bool is_read, bool is_write,
                  uvm::ProcessorId where) override;
    void onDiscard(const uvm::VaBlock &block,
                   const uvm::PageMask &pages) override;
    void onFree(const uvm::VaBlock &block,
                const uvm::PageMask &pages) override;
    void onFault(uvm::FaultEvent event, mem::VirtAddr block_base,
                 std::uint32_t pages) override;
    void onMap(const uvm::VaBlock &block, const uvm::PageMask &pages,
               uvm::ProcessorId where) override;
    void onUnmap(const uvm::VaBlock &block, const uvm::PageMask &pages,
                 uvm::ProcessorId where) override;
    void onDiscardStateChange(const uvm::VaBlock &block,
                              const uvm::PageMask &pages,
                              bool discarded) override;
    void onQueueMove(const uvm::VaBlock &block, mem::QueueKind from,
                     mem::QueueKind to) override;

  private:
    /** Event-built shadow of one block's verified state. */
    struct BlockMirror {
        uvm::PageMask mapped_cpu;
        uvm::PageMask mapped_gpu;
        uvm::PageMask discarded;
        mem::QueueKind queue = mem::QueueKind::kNone;
    };

    /** One block's live host-written tags: @c gen[p] is the
     *  generation of page p's tag, 0 for none. */
    struct BlockTags {
        std::array<std::uint64_t, mem::kPagesPerBlock> gen{};
        /** Nonzero entries of @c gen; the block is erased at 0. */
        std::uint32_t live = 0;
    };

    BlockMirror &mirrorOf(const uvm::VaBlock &block)
    {
        return mirror_[block.base];
    }

    /** Queue the driver should have put @p block on (the
     *  Section 5.1/5.5 requeue rule, recomputed independently). */
    static mem::QueueKind expectedQueue(const uvm::VaBlock &block,
                                        const uvm::UvmConfig &cfg);

    [[noreturn]] void fail(const std::string &kind,
                           const std::string &detail);
    void deferFail(const std::string &kind, const std::string &detail);

    /** Count one check and fail if @p ok is false.  @p detail is a
     *  callable returning the failure text, so a passing check
     *  builds no string. */
    template <typename Detail>
    void check(bool ok, const char *kind, Detail &&detail)
    {
        ++checks_;
        if (!ok)
            fail(kind, detail());
    }

    /** Raise the failures deferred from hooks, then read the sticky
     *  CUDA error; true when it is set, which voids every tag. */
    bool settle(cuda::Runtime &rt);
    /** The G2 postconditions and G4 tag updates of @p op. */
    void checkOp(const workloads::ScenarioOp &op, cuda::Runtime &rt);
    void checkAll(cuda::Runtime &rt);
    void checkBlock(const uvm::VaBlock &block,
                    const uvm::UvmConfig &cfg);

    // G4 content tags.
    static std::uint64_t tagFor(mem::VirtAddr page_va,
                                std::uint64_t gen);
    /** Tag every page of [addr, addr + size) that holds 8 bytes;
     *  @p addr must be page-aligned (buffers start at a range base). */
    void plantTags(cuda::Runtime &rt, mem::VirtAddr addr,
                   sim::Bytes size);
    void verifyTags(cuda::Runtime &rt, mem::VirtAddr addr,
                    sim::Bytes size);
    void verifyAllTags(cuda::Runtime &rt);
    void dropTags(mem::VirtAddr addr, sim::Bytes size);
    /** Check the tags of @p tags' pages [lo, hi) against memory;
     *  @p when ends the failure text. */
    void verifyBlockTags(cuda::Runtime &rt, mem::VirtAddr base,
                         const BlockTags &tags, std::uint32_t lo,
                         std::uint32_t hi, const char *when);

    bool check_content_;
    cuda::Runtime *rt_ = nullptr;

    std::map<mem::VirtAddr, BlockMirror> mirror_;

    /** Block base -> its tags.  Ordered, so every sweep visits tags
     *  in ascending VA and the first failure it reports is the
     *  lowest page. */
    std::map<mem::VirtAddr, BlockTags> defined_;
    std::uint64_t generation_ = 0;

    /** Per-op state, reset at each afterOp. */
    std::map<mem::VirtAddr, uvm::PageMask> discard_targets_;
    bool oom_fallback_this_op_ = false;

    /** Failures detected inside hooks; raised at the next safe point
     *  (afterOp/finalCheck) instead of unwinding through the driver
     *  mid-mutation. */
    std::vector<std::string> pending_;

    /** The op being checked, rendered only when fail() builds a
     *  report: its tokens during afterOp, else a fixed label. */
    const std::vector<std::string> *op_tokens_ = nullptr;
    const char *op_label_ = "<init>";
    std::size_t op_index_ = 0;
    std::size_t op_line_ = 0;

    std::uint64_t checks_ = 0;
    /** Bytes onTransfer (h2d, d2h) and onTransferSkipped (h2d, d2h)
     *  reported, for the G6 ledger checks. */
    std::array<sim::Bytes, 4> reported_{};
};

}  // namespace uvmd::verify

#endif  // UVMD_VERIFY_ORACLE_HPP
