/**
 * @file
 * runVerifiedScenario: execute a scenario DSL script with the full
 * verification harness attached — the differential Oracle, the
 * sim-progress livelock monitor, and the wall-clock watchdog — and
 * classify the outcome instead of throwing.
 *
 * Outcome taxonomy (also the scenario_runner exit codes):
 *   kOk           the script ran and every oracle check passed; CUDA
 *                 errors handled in-run (OOM, invalid spans) are
 *                 *defined behaviour* and count as kOk
 *   kParseError   the script itself is invalid (ScenarioParseError)
 *   kRuntimeError the simulator refused the program at runtime
 *                 (sim::FatalError other than the ones below)
 *   kDivergence   the oracle caught the driver out (VerificationError;
 *                 `report` holds the JSON artifact)
 *   kWatchdog     a progress watchdog tripped (livelock/step budget;
 *                 wall-clock trips _Exit(5) and never return here)
 */

#ifndef UVMD_VERIFY_VERIFIED_RUN_HPP
#define UVMD_VERIFY_VERIFIED_RUN_HPP

#include <cstdint>
#include <string>

#include "uvm/config.hpp"
#include "verify/oracle.hpp"
#include "verify/watchdog.hpp"

namespace uvmd::verify {

enum class Outcome : std::uint8_t {
    kOk,
    kParseError,
    kRuntimeError,
    kDivergence,
    kWatchdog,
};

const char *toString(Outcome outcome);

/** Outcome -> process exit status (0 ok, 2 parse, 3 runtime,
 *  4 divergence, 5 watchdog; matches scenario_runner --verify). */
int exitCode(Outcome outcome);

/** A verified run is always backed: the Oracle checks host-written
 *  data end to end. */
struct VerifyOptions {
    /** Deliberate driver mutation (oracle-detection self-test). */
    uvm::BugInjection bug = uvm::BugInjection::kNone;

    /** Wall-clock budget; the DSL's `deadline` directive overrides.
     *  0 disables the wall-clock watchdog entirely. */
    std::uint64_t wall_clock_ms = 30000;

    /** Name of the run for watchdog diagnoses (seed, path, ...). */
    std::string label;
};

struct VerifyResult {
    Outcome outcome = Outcome::kOk;

    /** The failure's human-readable message ("" for kOk). */
    std::string message;

    /** The divergence JSON artifact ("" unless kDivergence). */
    std::string report;

    /** Individual oracle checks evaluated. */
    std::uint64_t checks = 0;

    /** Scenario statistics (only meaningful for kOk). */
    workloads::ScenarioResult stats;

    bool ok() const { return outcome == Outcome::kOk; }
};

VerifyResult runVerifiedScenario(const std::string &script,
                                 const VerifyOptions &opts = {});

VerifyResult runVerifiedScenarioFile(const std::string &path,
                                     const VerifyOptions &opts = {});

}  // namespace uvmd::verify

#endif  // UVMD_VERIFY_VERIFIED_RUN_HPP
