/**
 * @file
 * Scenario DSL: a small text language over the runtime API, so memory
 * behaviour experiments don't require writing C++.
 *
 * A scenario is a line-oriented script (comments start with '#'):
 *
 *     gpu_memory 256MB          # before any allocation
 *     link pcie4                # pcie3 | pcie4 | nvlink
 *     policy lru                # lru | fifo | random
 *     occupy 128MB              # oversubscription occupier
 *     copy_engines 2            # DMA copy engines per direction (1..64)
 *     coalesce on               # on | off: DMA descriptor coalescing
 *     deadline 5s               # wall-clock budget for this scenario
 *                               # (enforced by verification harnesses
 *                               # through ScenarioHooks::on_deadline;
 *                               # ignored by the plain runner)
 *     inject on                 # enable deterministic fault injection
 *     inject seed 7             # injector RNG seed
 *     inject dma_fault_rate 0.001         # per-descriptor P(fault)
 *     inject dma_max_retries 4            # before a fault is fatal
 *     inject dma_backoff 5us              # base retry backoff
 *     inject alloc_fail_rate 0.01         # per-chunk-alloc P(fault)
 *     inject alloc_max_retries 3
 *     inject chunk_retire_rate 0.0001     # ECC-style page retirement
 *     inject chunk_retire_floor 2         # keep >= N usable chunks
 *     inject oom_fallback on              # Section-2.3 remote access
 *     inject degrade_link 0.5 after 100   # halve bandwidth later on
 *     inject offline_engine h2d 1 after 50  # kill a copy engine
 *     alloc A 64MB              # cudaMallocManaged
 *     host_write A              # host touches the whole buffer
 *     prefetch A gpu            # cudaMemPrefetchAsync (gpu | cpu)
 *     advise A prefer_cpu       # accessed_by | prefer_cpu | unset
 *     kernel k1 read A write B rw C compute 500us
 *     discard A eager           # eager | lazy
 *     host_read A
 *     free A
 *     sync
 *
 * Sizes take KB/MB/GB suffixes (decimal) or KiB/MiB/GiB (binary);
 * durations take us/ms/s.  The runner executes the script against a
 * fresh Runtime with an auditor attached and returns the final
 * statistics; `ScenarioResult::summary()` renders them.
 *
 * See the .uvm scripts under examples/scenarios/ and
 * examples/scenario_runner.cpp.
 */

#ifndef UVMD_WORKLOADS_SCENARIO_HPP
#define UVMD_WORKLOADS_SCENARIO_HPP

#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "workloads/common.hpp"

namespace uvmd::workloads {

/**
 * Thrown on scenario syntax/validity errors (unknown command, bad
 * operand, config directive after an op, unknown buffer name, ...).
 * Subclasses FatalError so legacy catch sites keep working, but lets
 * harnesses — the fuzzer's shrinker, the runner's exit codes — tell
 * "this program is invalid" apart from "this program failed".
 */
class ScenarioParseError : public sim::FatalError
{
  public:
    ScenarioParseError(std::size_t line, const std::string &what)
        : sim::FatalError(what), line_no(line)
    {}

    std::size_t line_no;
};

/** A scenario run's RunResult, plus the auditor's report.  `elapsed`
 *  is the simulated clock at the end of the script. */
struct ScenarioResult : RunResult {
    /** The auditor's ranked discard suggestions for this run. */
    std::string advisor_report;

    /** Human-readable multi-line summary of everything above. */
    std::string summary() const;
};

/**
 * One executed op line, handed to ScenarioHooks::after_op.  It says
 * what ran, as the interpreter resolved it, so a hook never re-reads
 * the script: @c kind is the command and @c spans the buffers it
 * named.  @c spans points into the interpreter and is valid only
 * during the hook call.
 */
struct ScenarioOp {
    enum class Kind {
        kAlloc, kFree, kHostWrite, kHostRead, kPrefetch,
        kDiscard, kAdvise, kKernel, kSync
    };

    Kind kind = Kind::kSync;
    /** The buffers the op named, in script order: the one buffer of a
     *  one-buffer op, a kernel's access list (a buffer named twice
     *  appears twice), none for sync.  Only host_read, host_write and
     *  kernel spans carry a meaningful access kind; the others read
     *  kRead. */
    std::span<const uvm::Access> spans;
    /** 0-based ordinal among op lines (not counting config). */
    std::size_t index = 0;
    /** 1-based line number in the script. */
    std::size_t line_no = 0;
    /** The whitespace-split tokens of the line (cmd first), to render
     *  the op in reports; its meaning is in @c kind and @c spans. */
    const std::vector<std::string> *tokens = nullptr;
};

/**
 * Extension points for verification harnesses (src/verify).  The
 * scenario layer stays ignorant of the verifier: it only offers these
 * generic hooks.  All members are optional; a default-constructed
 * ScenarioHooks reproduces the plain runScenario behaviour exactly.
 */
struct ScenarioHooks {
    /** Attached to the driver alongside the auditor (via an
     *  ObserverMux), so it sees every transfer/map/discard event. */
    uvm::TransferObserver *observer = nullptr;

    /** Adjust the parsed config before the Runtime is built (e.g.
     *  backed mode, panic_on_violation, a BugInjection). */
    std::function<void(uvm::UvmConfig &)> mutate_config;

    /** Called once the Runtime exists, before the first op. */
    std::function<void(cuda::Runtime &)> on_runtime_ready;

    /** Called after each op line (post sync when sync_each_op) with
     *  the op's kind and the buffers it named. */
    std::function<void(const ScenarioOp &, cuda::Runtime &)> after_op;

    /** Called after the final synchronize, before stats harvest. */
    std::function<void(cuda::Runtime &)> before_finish;

    /** Receives the `deadline <dur>` directive's value, if present. */
    std::function<void(sim::SimDuration)> on_deadline;

    /** synchronize() after every op so after_op observes settled
     *  state (stream ops are asynchronous by default). */
    bool sync_each_op = false;
};

/**
 * Parse and execute @p script.
 * @throws ScenarioParseError on syntax errors (with a line number);
 *         sim::FatalError on the usual runtime errors (unknown
 *         buffer, OOM, ...).
 */
ScenarioResult runScenario(const std::string &script);

/** Like runScenario(), with verification hooks attached. */
ScenarioResult runScenario(const std::string &script,
                           const ScenarioHooks &hooks);

/** Load the script from @p path and run it. */
ScenarioResult runScenarioFile(const std::string &path);

/** Load the script from @p path and run it with hooks. */
ScenarioResult runScenarioFile(const std::string &path,
                               const ScenarioHooks &hooks);

}  // namespace uvmd::workloads

#endif  // UVMD_WORKLOADS_SCENARIO_HPP
