#include "verify/verified_run.hpp"

#include <fstream>
#include <sstream>

namespace uvmd::verify {

const char *
toString(Outcome outcome)
{
    switch (outcome) {
      case Outcome::kOk:
        return "ok";
      case Outcome::kParseError:
        return "parse-error";
      case Outcome::kRuntimeError:
        return "runtime-error";
      case Outcome::kDivergence:
        return "divergence";
      case Outcome::kWatchdog:
        return "watchdog";
    }
    return "?";
}

int
exitCode(Outcome outcome)
{
    switch (outcome) {
      case Outcome::kOk:
        return 0;
      case Outcome::kParseError:
        return 2;
      case Outcome::kRuntimeError:
        return 3;
      case Outcome::kDivergence:
        return 4;
      case Outcome::kWatchdog:
        return WatchdogError::kExitCode;
    }
    return 1;
}

VerifyResult
runVerifiedScenario(const std::string &script, const VerifyOptions &opts)
{
    VerifyResult res;
    Oracle oracle;
    ProgressMonitor monitor;
    Watchdog watchdog;
    std::string label =
        opts.label.empty() ? "verified scenario" : opts.label;

    workloads::ScenarioHooks hooks;
    hooks.observer = &oracle;
    hooks.sync_each_op = true;
    hooks.mutate_config = [&](uvm::UvmConfig &cfg) {
        // The G4 content checks need real bytes behind the pages.
        // The lazy-contract warning is an expected event under
        // fuzzing (the fuzzer writes discarded pages on purpose), so
        // it must not spam a 1000-seed campaign.
        cfg.lazy_contract_warnings = false;
        cfg.bug = opts.bug;
        cfg.backed = true;
    };
    hooks.on_runtime_ready = [&](cuda::Runtime &rt) {
        oracle.attachRuntime(rt);
        rt.driver().setProgressSink(&monitor);
    };
    hooks.after_op = [&](const workloads::ScenarioOp &op,
                         cuda::Runtime &rt) { oracle.afterOp(op, rt); };
    hooks.before_finish = [&](cuda::Runtime &rt) {
        oracle.finalCheck(rt);
    };
    hooks.on_deadline = [&](sim::SimDuration d) {
        watchdog.arm(std::chrono::nanoseconds(d), label);
    };

    if (opts.wall_clock_ms)
        watchdog.arm(std::chrono::milliseconds(opts.wall_clock_ms), label);

    try {
        res.stats = workloads::runScenario(script, hooks);
        res.outcome = Outcome::kOk;
    } catch (const workloads::ScenarioParseError &e) {
        res.outcome = Outcome::kParseError;
        res.message = e.what();
    } catch (const VerificationError &e) {
        res.outcome = Outcome::kDivergence;
        res.message = e.what();
        res.report = e.report;
    } catch (const WatchdogError &e) {
        res.outcome = Outcome::kWatchdog;
        res.message = e.what();
    } catch (const sim::FatalError &e) {
        res.outcome = Outcome::kRuntimeError;
        res.message = e.what();
    }
    watchdog.disarm();
    res.checks = oracle.checksRun();
    return res;
}

VerifyResult
runVerifiedScenarioFile(const std::string &path,
                        const VerifyOptions &opts)
{
    std::ifstream in(path);
    if (!in) {
        VerifyResult res;
        res.outcome = Outcome::kRuntimeError;
        res.message = "cannot open scenario file: " + path;
        return res;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    VerifyOptions with_label = opts;
    if (with_label.label.empty())
        with_label.label = path;
    return runVerifiedScenario(buf.str(), with_label);
}

}  // namespace uvmd::verify
