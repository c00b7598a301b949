/**
 * @file
 * Scenario fuzzing under the verification oracle.
 *
 * generateScenario() derives a random-but-valid scenario DSL script
 * from a seed (xoshiro-seeded, fully deterministic): a randomized
 * memory/link/policy configuration, optional fault-injection knobs,
 * and a few dozen weighted operations over a handful of live buffers
 * sized to stress eviction.  runSeed() executes it under
 * runVerifiedScenario; any divergence, watchdog trip, or runtime
 * panic is a *failure*.
 *
 * Failures shrink automatically: first whole lines are delta-debugged
 * away (largest windows first), then operands are minimized (halving
 * allocation sizes, dropping kernel clauses) — every candidate must
 * reproduce the same outcome class to be accepted.  The minimal
 * reproducer lands in `repro_<seed>.uvm` next to the divergence
 * report `diverge_<seed>.json`; the candidate under test is written
 * to disk *before* each run, so even a wall-clock watchdog _Exit()
 * leaves the evidence behind.
 */

#ifndef UVMD_VERIFY_FUZZER_HPP
#define UVMD_VERIFY_FUZZER_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "verify/verified_run.hpp"

namespace uvmd::fuzz {

struct FuzzOptions {
    /** Add fault-injection directives to generated scenarios. */
    bool faults = false;

    /** Base verification options (bug injection, watchdog budget). */
    verify::VerifyOptions verify;

    /** Directory for repro_<seed>.uvm / diverge_<seed>.json. */
    std::string artifact_dir = ".";

    /** Write reproducer/report artifacts for failures (and the
     *  in-flight candidate, for watchdog post-mortems). */
    bool write_artifacts = true;

    /** Skip the shrinking phase (report the raw failing script). */
    bool shrink = true;
};

/** Deterministically derive a scenario script from @p seed. */
std::string generateScenario(std::uint64_t seed, bool faults);

struct FuzzCaseResult {
    std::uint64_t seed = 0;
    verify::VerifyResult result;

    /** The generated script. */
    std::string scenario;

    /** Minimal reproducer ("" when the seed passed). */
    std::string repro;

    /** Artifact paths ("" when not written). */
    std::string repro_path;
    std::string report_path;

    bool failed() const;
};

/** Generate, run, and (on failure) shrink one seed. */
FuzzCaseResult runSeed(std::uint64_t seed, const FuzzOptions &opts);

/**
 * Shrink @p script to a minimal version that still produces
 * @p target under @p opts.  Returns the smallest reproducing script
 * found (possibly @p script itself) within 2000 candidate
 * executions; @p candidate_path, when non-empty, receives each
 * candidate before it runs (watchdog evidence).
 */
std::string shrinkScenario(const std::string &script,
                           const verify::VerifyOptions &opts,
                           verify::Outcome target,
                           const std::string &candidate_path = "");

struct CampaignResult {
    std::uint64_t seeds_run = 0;
    std::uint64_t failures = 0;
    std::uint64_t total_checks = 0;
    std::vector<FuzzCaseResult> failed;

    bool ok() const { return failures == 0; }
};

/** Run seeds [first_seed, first_seed + count); failures are kept in
 *  `failed` with their shrunken reproducers.  @p progress, when
 *  non-null, receives one status line per failure plus a periodic
 *  heartbeat. */
CampaignResult runCampaign(std::uint64_t first_seed,
                           std::uint64_t count, const FuzzOptions &opts,
                           std::ostream *progress = nullptr);

}  // namespace uvmd::fuzz

#endif  // UVMD_VERIFY_FUZZER_HPP
