/**
 * @file
 * Tests for the scenario DSL: parsing (sizes, durations, errors with
 * line numbers), configuration directives, and end-to-end semantics
 * of scripted runs (the Figure-2 pattern with and without discard).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <string>

#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "workloads/scenario.hpp"

namespace uvmd::workloads {
namespace {

TEST(Scenario, MinimalScriptRuns)
{
    ScenarioResult r = runScenario(R"(
        alloc a 4MiB
        host_write a
        prefetch a gpu
        sync
    )");
    EXPECT_EQ(r.traffic_h2d, 4 * sim::kMiB);
    EXPECT_EQ(r.traffic_d2h, 0u);
    EXPECT_GT(r.elapsed, 0);
}

TEST(Scenario, CommentsAndBlanksIgnored)
{
    ScenarioResult r = runScenario(R"(
        # a comment line
        alloc a 2MiB   # trailing comment

        host_write a
    )");
    EXPECT_EQ(r.traffic_h2d, 0u);
}

TEST(Scenario, SizeUnits)
{
    // 2 MB (decimal) rounds into one managed range; traffic equals
    // whole 4 KiB pages of the populated span.
    ScenarioResult r = runScenario(R"(
        alloc a 2MB
        host_write a
        prefetch a gpu
    )");
    EXPECT_EQ(r.traffic_h2d, mem::alignUp(2'000'000, 4096));
}

TEST(Scenario, Figure2PatternShowsRedundantTransfers)
{
    ScenarioResult r = runScenario(R"(
        gpu_memory 16MiB
        alloc temp 8MiB
        alloc other 16MiB
        kernel writer write temp compute 100us
        kernel reader read temp compute 100us
        prefetch other gpu
        kernel phase rw other compute 200us
        kernel overwriter write temp compute 100us
    )");
    // temp's dead 8 MiB went out and came back: 16 MiB redundant at
    // least.
    EXPECT_GE(r.redundant, 16 * sim::kMiB);
    EXPECT_EQ(r.skipped_by_discard, 0u);
    EXPECT_NE(r.advisor_report.find("temp"), std::string::npos);
}

TEST(Scenario, DiscardVariantSkipsThem)
{
    ScenarioResult r = runScenario(R"(
        gpu_memory 16MiB
        alloc temp 8MiB
        alloc other 16MiB
        kernel writer write temp compute 100us
        kernel reader read temp compute 100us
        discard temp eager
        prefetch other gpu
        kernel phase rw other compute 200us
        prefetch temp gpu
        kernel overwriter write temp compute 100us
    )");
    EXPECT_GE(r.skipped_by_discard, 8 * sim::kMiB);
    EXPECT_GT(r.evictions_discarded, 0u);
    EXPECT_EQ(r.advisor_report.find("'temp'"), std::string::npos);
}

TEST(Scenario, OccupyCreatesPressure)
{
    ScenarioResult with = runScenario(R"(
        gpu_memory 32MiB
        occupy 24MiB
        alloc a 16MiB
        host_write a
        prefetch a gpu
        alloc b 8MiB
        prefetch b gpu
    )");
    EXPECT_GT(with.evictions_used, 0u);
}

TEST(Scenario, AdviseRemote)
{
    ScenarioResult r = runScenario(R"(
        alloc a 4MiB
        host_write a
        advise a prefer_cpu
        kernel k read a compute 10us
        kernel k read a compute 10us
    )");
    // Two remote reads: traffic is 2x the buffer, no eviction churn.
    EXPECT_EQ(r.traffic_h2d, 8 * sim::kMiB);
    EXPECT_EQ(r.evictions_used, 0u);
}

TEST(Scenario, PolicyAndLinkDirectivesParse)
{
    ScenarioResult pcie3 = runScenario(R"(
        link pcie3
        policy fifo
        alloc a 16MiB
        host_write a
        prefetch a gpu
    )");
    ScenarioResult nvlink = runScenario(R"(
        link nvlink
        alloc a 16MiB
        host_write a
        prefetch a gpu
    )");
    EXPECT_GT(pcie3.elapsed, nvlink.elapsed);
}

TEST(Scenario, FreeReleasesBuffer)
{
    ScenarioResult r = runScenario(R"(
        alloc a 4MiB
        host_write a
        free a
    )");
    EXPECT_GE(r.redundant, 0u);
}

// ---- Error handling ----

TEST(Scenario, UnknownCommandIsFatalWithLineNumber)
{
    try {
        runScenario("alloc a 4MiB\nfrobnicate a\n");
        FAIL() << "expected FatalError";
    } catch (const sim::FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("line 2"),
                  std::string::npos);
    }
}

TEST(Scenario, UnknownBufferIsFatal)
{
    EXPECT_THROW(runScenario("prefetch ghost gpu\n"), sim::FatalError);
}

TEST(Scenario, BadSizeUnitIsFatal)
{
    EXPECT_THROW(runScenario("alloc a 4parsecs\n"), sim::FatalError);
}

TEST(Scenario, DuplicateAllocIsFatal)
{
    EXPECT_THROW(runScenario("alloc a 4MiB\nalloc a 4MiB\n"),
                 sim::FatalError);
}

TEST(Scenario, LateConfigDirectiveIsFatal)
{
    EXPECT_THROW(runScenario("alloc a 4MiB\ngpu_memory 1GiB\n"),
                 sim::FatalError);
}

TEST(Scenario, MissingArgumentIsFatal)
{
    EXPECT_THROW(runScenario("alloc a\n"), sim::FatalError);
}

TEST(Scenario, MissingFileIsFatal)
{
    EXPECT_THROW(runScenarioFile("/nonexistent/path.uvm"),
                 sim::FatalError);
}

// ------------------------------------------------------------------
// Fault-injection directives
// ------------------------------------------------------------------

TEST(ScenarioInject, DmaFaultDirectivesRunAndReport)
{
    ScenarioResult r = runScenario(R"(
        inject seed 7
        inject dma_fault_rate 0.5
        inject dma_max_retries 32
        alloc a 8MiB
        host_write a
        prefetch a gpu
        sync
    )");
    // Deterministic seed: with rate 0.5 over an 8 MiB prefetch some
    // descriptors certainly fault, and each DMA fault costs exactly
    // one retry.
    EXPECT_GT(r.fault_injected, 0u);
    EXPECT_EQ(r.transfer_retries, r.fault_injected);
    std::string s = r.summary();
    EXPECT_NE(s.find("faults injected"), std::string::npos);
    EXPECT_NE(s.find("transfer retries"), std::string::npos);
}

TEST(ScenarioInject, ChunkRetirementReportsPagesRetired)
{
    ScenarioResult r = runScenario(R"(
        gpu_memory 8MiB
        inject chunk_retire_rate 1.0
        inject chunk_retire_floor 2
        alloc a 4MiB
        host_write a
        prefetch a gpu
        kernel k read a compute 10us
        sync
    )");
    // The ECC roll happens at driver entry points against chunks that
    // are already allocated, so the kernel after the prefetch trips it.
    EXPECT_GT(r.pages_retired, 0u);
    EXPECT_EQ(r.pages_retired % mem::kPagesPerBlock, 0u);
    EXPECT_NE(r.summary().find("pages retired"), std::string::npos);
}

TEST(ScenarioInject, OomFallbackDirectiveServesAccessRemotely)
{
    ScenarioResult r = runScenario(R"(
        gpu_memory 4MiB
        occupy 4MiB
        inject oom_fallback on
        alloc a 2MiB
        host_write a
        kernel k rw a compute 10us
    )");
    EXPECT_GT(r.oom_fallbacks, 0u);
    EXPECT_NE(r.summary().find("oom fallbacks"), std::string::npos);
}

TEST(ScenarioInject, CleanRunSummaryOmitsFaultLines)
{
    ScenarioResult r = runScenario(R"(
        alloc a 4MiB
        host_write a
        prefetch a gpu
    )");
    EXPECT_EQ(r.fault_injected, 0u);
    EXPECT_EQ(r.summary().find("faults injected"), std::string::npos);
}

TEST(ScenarioInject, UnknownKnobIsFatalWithLineNumber)
{
    try {
        runScenario("inject frobnicate 1\n");
        FAIL() << "expected FatalError";
    } catch (const sim::FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("line 1"),
                  std::string::npos);
    }
}

TEST(ScenarioInject, OutOfRangeRateIsFatal)
{
    EXPECT_THROW(runScenario("inject dma_fault_rate 1.5\n"),
                 sim::FatalError);
    EXPECT_THROW(runScenario("inject dma_fault_rate -0.1\n"),
                 sim::FatalError);
}

TEST(ScenarioInject, ZeroDegradeFactorIsFatal)
{
    EXPECT_THROW(runScenario("inject degrade_link 0 after 5\n"),
                 sim::FatalError);
}

TEST(ScenarioInject, LateInjectDirectiveIsFatal)
{
    EXPECT_THROW(runScenario("alloc a 4MiB\ninject on\n"),
                 sim::FatalError);
}

// ------------------------------------------------------------------
// Parser robustness
// ------------------------------------------------------------------

TEST(ScenarioRobust, TrailingOperandIsFatalWithLineNumber)
{
    try {
        runScenario("alloc a 4MiB extra\n");
        FAIL() << "expected FatalError";
    } catch (const sim::FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("line 1"),
                  std::string::npos);
    }
}

TEST(ScenarioRobust, NegativeSizeIsFatal)
{
    EXPECT_THROW(runScenario("alloc a -4MiB\n"), sim::FatalError);
}

TEST(ScenarioRobust, ImplausibleSizesAreFatal)
{
    EXPECT_THROW(runScenario("gpu_memory 5TiB\n"), sim::FatalError);
    EXPECT_THROW(runScenario("alloc a 128GiB\n"), sim::FatalError);
}

TEST(ScenarioRobust, ImplausibleDurationsAreFatalWithLineNumber)
{
    // Each directive that takes a duration, with a value past 2^62 ns
    // and with infinity; either would overflow the int64 nanosecond
    // cast.
    const char *scripts[] = {
        "alloc a 4MiB\nkernel k rw a compute 1e300s\n",
        "alloc a 4MiB\nkernel k rw a compute infus\n",
        "gpu_memory 8MiB\ndeadline 1e300s\n",
        "gpu_memory 8MiB\ndeadline infms\n",
        "gpu_memory 8MiB\ninject dma_backoff infs\n",
        "gpu_memory 8MiB\ninject dma_backoff 4611686018427387905000ns\n",
    };
    for (const char *script : scripts) {
        try {
            runScenario(script);
            ADD_FAILURE() << "expected ScenarioParseError: " << script;
        } catch (const ScenarioParseError &err) {
            EXPECT_EQ(err.line_no, 2u) << script;
            EXPECT_NE(std::string(err.what()).find("line 2: duration"),
                      std::string::npos)
                << err.what();
        }
    }
    // 2^62 ns itself is accepted, and arrives exactly.
    ScenarioHooks hooks;
    sim::SimDuration deadline = 0;
    hooks.on_deadline = [&](sim::SimDuration d) { deadline = d; };
    EXPECT_NO_THROW(
        runScenario("deadline 4611686018427387904ns\nalloc a 4MiB\n",
                    hooks));
    EXPECT_EQ(deadline, sim::SimDuration{1} << 62);
}

TEST(ScenarioRobust, BadCopyEngineCountIsFatalBeforeRuntime)
{
    // Trailing junk, zero, and more engines than any GPU has each
    // fail in the configuration pass, naming the line, before a
    // Runtime (and its per-direction engine vectors) is built.
    for (const char *count : {"2x", "0", "65"}) {
        const std::string script = std::string("gpu_memory 8MiB\n"
                                               "copy_engines ") +
                                   count + "\nalloc a 4MiB\n";
        ScenarioHooks hooks;
        bool built = false;
        hooks.mutate_config = [&](uvm::UvmConfig &) { built = true; };
        try {
            runScenario(script, hooks);
            ADD_FAILURE() << "expected ScenarioParseError for " << count;
        } catch (const ScenarioParseError &err) {
            EXPECT_EQ(err.line_no, 2u) << count;
            EXPECT_NE(std::string(err.what()).find("line 2"),
                      std::string::npos)
                << count;
        }
        EXPECT_FALSE(built) << count;
    }
    // The bounds themselves are accepted.
    EXPECT_NO_THROW(runScenario("copy_engines 1\nalloc a 4MiB\n"));
    EXPECT_NO_THROW(runScenario("copy_engines 64\nalloc a 4MiB\n"));
}

TEST(ScenarioRobust, ConfigDirectiveAfterAnOpIsFatal)
{
    // Each of the eight configuration directives, valid in the header,
    // is rejected once an operation has run.
    for (const char *directive :
         {"gpu_memory 8MiB", "inject on", "link pcie3", "policy fifo",
          "occupy 1MiB", "copy_engines 2", "coalesce on", "deadline 1s"}) {
        EXPECT_NO_THROW(
            runScenario(std::string(directive) + "\nalloc a 1MiB\n"))
            << directive;
        try {
            runScenario(std::string("alloc a 1MiB\n") + directive + "\n");
            ADD_FAILURE() << "expected ScenarioParseError for "
                          << directive;
        } catch (const ScenarioParseError &err) {
            EXPECT_EQ(err.line_no, 2u) << directive;
            EXPECT_NE(std::string(err.what()).find(
                          "configuration directives must precede all "
                          "operations"),
                      std::string::npos)
                << directive << ": " << err.what();
        }
    }
}

TEST(ScenarioRobust, FuzzedScriptsNeverCrash)
{
    // Deterministic fuzz: mutate a valid script by truncation, token
    // splicing, and byte noise.  Every mutant must either run or be
    // rejected with FatalError — never crash, hang, or corrupt memory
    // (the asan build runs this too).
    const std::string base = "gpu_memory 8MiB\n"
                             "inject dma_fault_rate 0.1\n"
                             "inject degrade_link 0.5 after 10\n"
                             "alloc a 4MiB\n"
                             "host_write a\n"
                             "prefetch a gpu\n"
                             "kernel k rw a compute 10us\n"
                             "discard a eager\n"
                             "sync\n";
    const char *splices[] = {"inject", "after",  "4MiB",  "-1",
                             "1e999",  "gpu",    "\x01",  "#",
                             "alloc",  "999999", "h2d",   ""};
    sim::Rng rng(2022);
    for (int iter = 0; iter < 300; ++iter) {
        std::string s = base;
        switch (rng.below(3)) {
          case 0:  // truncate mid-script
            s = s.substr(0, rng.below(s.size() + 1));
            break;
          case 1: {  // splice a random token somewhere
            std::size_t pos = rng.below(s.size());
            s.insert(pos, splices[rng.below(std::size(splices))]);
            break;
          }
          case 2: {  // flip a byte
            std::size_t pos = rng.below(s.size());
            s[pos] = static_cast<char>(rng.below(128));
            break;
          }
        }
        try {
            runScenario(s);
        } catch (const sim::FatalError &) {
            // rejection is fine; crashing is not
        }
    }
    SUCCEED();
}

TEST(Scenario, SummaryMentionsKeyStats)
{
    ScenarioResult r = runScenario(R"(
        alloc a 4MiB
        host_write a
        prefetch a gpu
    )");
    std::string s = r.summary();
    EXPECT_NE(s.find("traffic h2d"), std::string::npos);
    EXPECT_NE(s.find("redundant"), std::string::npos);
}

}  // namespace
}  // namespace uvmd::workloads
