/**
 * @file
 * End-to-end benchmark of the uvmd simulator.
 *
 * One process runs one workload:
 *
 *   paper_tables  runFir, runRadixSort and runHashJoin on PCIe-4 at
 *                 <100%, 200% and 400% oversubscription under UVM-opt,
 *                 UvmDiscard and UvmDiscardLazy (the Tables 3-8 cells).
 *   dl_train      dl::runTraining over the Figure 6 grid on PCIe-4.
 *   verify_fuzz   verify::runVerifiedScenario over the CI campaign's
 *                 fuzzed scripts: seeds 1..200, fault injection off
 *                 and on.
 *
 * Every run is checked: a Table 3-8 run against its committed results
 * CSV cells (PCIe-4 column, printed precision), a training run against
 * its Figure 6 throughput cell, and a fuzz script must end with oracle
 * outcome "ok".  A run that throws or mismatches counts as failed.
 *
 * --trace 0 measures the end-to-end metrics: the workload's passes are
 * repeated until --seconds have elapsed, with each run pinned to a
 * different CPU in each pass, and a run's time is its fastest over the
 * passes.  --trace 1 repeats pairs of passes instead: one plain, one
 * traced.  The traced pass wraps the observers in a forwarding
 * TimedObserver, replays runRadixSort through cuda::Runtime with timed
 * API calls, and rebuilds runVerifiedScenario from ScenarioHooks,
 * Oracle and ProgressMonitor.  Each traced result must equal the plain
 * pass's library result exactly; the per-layer metrics are medians
 * over pairs.
 *
 * Progress and mismatches go to stderr.  The last line of stdout is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 * Usage:
 *   uvmd_e2e --workload W --seed N --seconds S --trace 0|1
 *            [--root DIR] [--results-dir DIR]
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <ctime>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/auditor.hpp"
#include "trace/report.hpp"
#include "verify/fuzzer.hpp"
#include "verify/oracle.hpp"
#include "verify/verified_run.hpp"
#include "workloads/dl/trainer.hpp"
#include "workloads/fir.hpp"
#include "workloads/hash_join.hpp"
#include "workloads/radix_sort.hpp"
#include "workloads/scenario.hpp"

namespace {

using namespace uvmd;
using workloads::RunResult;
using workloads::System;
namespace dl = workloads::dl;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Adds the lifetime of the enclosing scope to @p acc (seconds). */
class ScopeTimer
{
  public:
    explicit ScopeTimer(double &acc) : acc_(acc) {}
    ~ScopeTimer() { acc_ += secondsSince(t0_); }

    ScopeTimer(const ScopeTimer &) = delete;
    ScopeTimer &operator=(const ScopeTimer &) = delete;

  private:
    double &acc_;
    Clock::time_point t0_ = Clock::now();
};

template <typename F>
decltype(auto)
timed(double &acc, F &&f)
{
    ScopeTimer t(acc);
    return f();
}

// ------------------------------------------------------------------
// Metrics
// ------------------------------------------------------------------

struct MetricDef {
    const char *name;
    const char *unit;
};

/** Printed with --trace 0 (BENCHMARK.json "end_to_end"). */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"paper_err", "ratio"},
};

/** Printed with --trace 1 (BENCHMARK.json "per_layer").  A metric a
 *  workload cannot observe reads 0 there (see README.md). */
constexpr MetricDef kPerLayer[] = {
    {"workloads.fir_s", "s"},
    {"workloads.radix_s", "s"},
    {"workloads.hashjoin_s", "s"},
    {"workloads.dl_s", "s"},
    {"workloads.scenario_s", "s"},
    {"workloads.no_uvm_s", "s"},
    {"workloads.uvm_opt_s", "s"},
    {"workloads.uvm_discard_s", "s"},
    {"workloads.uvm_discard_lazy_s", "s"},
    {"workloads.longest_run_s", "s"},
    {"cuda.sync_s", "s"},
    {"cuda.api_s", "s"},
    {"cuda.events", "count"},
    {"cuda.events_per_s", "1/s"},
    {"uvm.gpu_fault_batches", "count"},
    {"uvm.gpu_faulted_pages", "count"},
    {"uvm.prefetch_migrated_pages", "count"},
    {"uvm.prefetch_rearmed_pages", "count"},
    {"uvm.discarded_pages", "count"},
    {"uvm.evictions_used", "count"},
    {"uvm.evictions_discarded", "count"},
    {"uvm.gpu_unmap_ops", "count"},
    {"uvm.chunk_rezero_ops", "count"},
    {"uvm.evict_free_ratio", "ratio"},
    {"uvm.residual_s", "s"},
    {"interconnect.bytes_h2d", "bytes"},
    {"interconnect.bytes_d2h", "bytes"},
    {"xfer.dma_descriptors", "count"},
    {"xfer.saved_bytes", "bytes"},
    {"xfer.skip_ratio", "ratio"},
    {"trace.auditor_s", "s"},
    {"trace.auditor_calls", "count"},
    {"trace.auditor_ns_per_call", "ns"},
    {"trace.auditor_share", "ratio"},
    {"trace.redundant_ratio", "ratio"},
    {"verify.oracle_s", "s"},
    {"verify.checks", "count"},
    {"verify.checks_per_s", "1/s"},
    {"verify.overhead", "ratio"},
    {"verify.gen_s", "s"},
    {"sim.fault_injected", "count"},
    {"sim.transfer_retries", "count"},
    {"paper_err.fir", "ratio"},
    {"paper_err.radix", "ratio"},
    {"paper_err.hashjoin", "ratio"},
    {"bench.traced_wall_s", "s"},
    {"bench.trace_overhead_s", "s"},
};

/** Metric name -> value.  Names starting with '_' are accumulators
 *  that derived metrics are computed from; they are never printed. */
using Metrics = std::map<std::string, double>;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Counts every workload result type carries. */
template <typename Result>
void
addRunCounts(Metrics &m, const Result &r)
{
    m["uvm.gpu_fault_batches"] += r.gpu_fault_batches;
    m["uvm.evictions_used"] += r.evictions_used;
    m["uvm.evictions_discarded"] += r.evictions_discarded;
    m["interconnect.bytes_h2d"] += r.traffic_h2d;
    m["interconnect.bytes_d2h"] += r.traffic_d2h;
    m["xfer.saved_bytes"] += r.skipped_by_discard;
    m["_required"] += r.required;
    m["_redundant"] += r.redundant;
    m["sim.fault_injected"] += r.fault_injected;
    m["sim.transfer_retries"] += r.transfer_retries;
}

/** Counts only readable where the benchmark holds the Runtime. */
void
addDriverCounts(Metrics &m, cuda::Runtime &rt)
{
    const sim::StatGroup &c = rt.driver().counters();
    m["uvm.gpu_faulted_pages"] += c.get("gpu_faulted_pages");
    m["uvm.prefetch_migrated_pages"] += c.get("prefetch_migrated_pages");
    m["uvm.prefetch_rearmed_pages"] += c.get("prefetch_rearmed_pages");
    m["uvm.discarded_pages"] += c.get("discarded_pages");
    m["uvm.gpu_unmap_ops"] += c.get("gpu_unmap_ops");
    m["uvm.chunk_rezero_ops"] += c.get("chunk_rezero_ops");
    m["xfer.dma_descriptors"] += c.get("dma_descriptors");
    m["cuda.events"] += rt.eventQueue().executed();
}

bool
sameRun(const RunResult &a, const RunResult &b)
{
    return a.system == b.system && a.ovsp_ratio == b.ovsp_ratio &&
           a.elapsed == b.elapsed && a.traffic_h2d == b.traffic_h2d &&
           a.traffic_d2h == b.traffic_d2h && a.required == b.required &&
           a.redundant == b.redundant &&
           a.skipped_by_discard == b.skipped_by_discard &&
           a.gpu_fault_batches == b.gpu_fault_batches &&
           a.evictions_used == b.evictions_used &&
           a.evictions_discarded == b.evictions_discarded &&
           a.fault_injected == b.fault_injected &&
           a.transfer_retries == b.transfer_retries &&
           a.pages_retired == b.pages_retired &&
           a.oom_fallbacks == b.oom_fallbacks;
}

bool
sameScenario(const workloads::ScenarioResult &a,
             const workloads::ScenarioResult &b)
{
    return a.elapsed == b.elapsed && a.traffic_h2d == b.traffic_h2d &&
           a.traffic_d2h == b.traffic_d2h && a.required == b.required &&
           a.redundant == b.redundant &&
           a.skipped_by_discard == b.skipped_by_discard &&
           a.gpu_fault_batches == b.gpu_fault_batches &&
           a.evictions_used == b.evictions_used &&
           a.evictions_discarded == b.evictions_discarded &&
           a.fault_injected == b.fault_injected &&
           a.transfer_retries == b.transfer_retries &&
           a.pages_retired == b.pages_retired &&
           a.oom_fallbacks == b.oom_fallbacks &&
           a.advisor_report == b.advisor_report;
}

// ------------------------------------------------------------------
// Tracing shim
// ------------------------------------------------------------------

/**
 * Forwards every TransferObserver hook to @p inner and times it.  The
 * observers wrapped here (Auditor, Oracle) never call back into the
 * driver, so a hook's duration is the observer's self time.
 */
class TimedObserver : public uvm::TransferObserver
{
  public:
    explicit TimedObserver(uvm::TransferObserver &inner) : inner_(inner) {}

    double seconds() const { return seconds_; }
    std::uint64_t calls() const { return calls_; }

    void
    onTransfer(const uvm::VaBlock &block, const uvm::PageMask &pages,
               interconnect::Direction dir,
               uvm::TransferCause cause) override
    {
        Hook h(*this);
        inner_.onTransfer(block, pages, dir, cause);
    }

    void
    onTransferSkipped(const uvm::VaBlock &block,
                      const uvm::PageMask &pages,
                      interconnect::Direction dir,
                      uvm::TransferCause cause) override
    {
        Hook h(*this);
        inner_.onTransferSkipped(block, pages, dir, cause);
    }

    void
    onAccess(const uvm::VaBlock &block, const uvm::PageMask &pages,
             bool is_read, bool is_write, uvm::ProcessorId where) override
    {
        Hook h(*this);
        inner_.onAccess(block, pages, is_read, is_write, where);
    }

    void
    onDiscard(const uvm::VaBlock &block,
              const uvm::PageMask &pages) override
    {
        Hook h(*this);
        inner_.onDiscard(block, pages);
    }

    void
    onFree(const uvm::VaBlock &block, const uvm::PageMask &pages) override
    {
        Hook h(*this);
        inner_.onFree(block, pages);
    }

    void
    onFault(uvm::FaultEvent event, mem::VirtAddr block_base,
            std::uint32_t pages) override
    {
        Hook h(*this);
        inner_.onFault(event, block_base, pages);
    }

    void
    onMap(const uvm::VaBlock &block, const uvm::PageMask &pages,
          uvm::ProcessorId where) override
    {
        Hook h(*this);
        inner_.onMap(block, pages, where);
    }

    void
    onUnmap(const uvm::VaBlock &block, const uvm::PageMask &pages,
            uvm::ProcessorId where) override
    {
        Hook h(*this);
        inner_.onUnmap(block, pages, where);
    }

    void
    onDiscardStateChange(const uvm::VaBlock &block,
                         const uvm::PageMask &pages,
                         bool discarded) override
    {
        Hook h(*this);
        inner_.onDiscardStateChange(block, pages, discarded);
    }

    void
    onQueueMove(const uvm::VaBlock &block, mem::QueueKind from,
                mem::QueueKind to) override
    {
        Hook h(*this);
        inner_.onQueueMove(block, from, to);
    }

  private:
    struct Hook {
        explicit Hook(TimedObserver &o) : timer(o.seconds_) { ++o.calls_; }
        ScopeTimer timer;
    };

    uvm::TransferObserver &inner_;
    double seconds_ = 0.0;
    std::uint64_t calls_ = 0;
};

// ------------------------------------------------------------------
// Inputs: the run plan and the reference cells
// ------------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";
    std::string results_dir;  ///< default <root>/results
};

enum class App { kFir, kRadix, kHashJoin };

const char *
appName(App app)
{
    switch (app) {
      case App::kFir:
        return "fir";
      case App::kRadix:
        return "radix";
      case App::kHashJoin:
        return "hashjoin";
    }
    return "?";
}

/** Results CSVs of each application: Tables 3/4, 5/6 and 7/8. */
struct TableFiles {
    App app;
    const char *runtime;
    const char *traffic;
};

constexpr TableFiles kTableFiles[] = {
    {App::kFir, "table3_fir_runtime.csv", "table4_fir_traffic.csv"},
    {App::kRadix, "table5_radix_runtime.csv", "table6_radix_traffic.csv"},
    {App::kHashJoin, "table7_hashjoin_runtime.csv",
     "table8_hashjoin_traffic.csv"},
};

constexpr double kRatios[] = {0.0, 2.0, 4.0};
constexpr System kUvmSystems[] = {System::kUvmOpt, System::kUvmDiscard,
                                  System::kUvmDiscardLazy};
/** The CI campaign's corpus (scripts/ci.sh): fuzz seeds 1..200, each
 *  with fault injection off and on.  The corpus is fixed, and the
 *  benchmark seed only permutes it: a seed-derived window made the
 *  slowest and the largest script, and so the longest run and
 *  peak_rss_mb, change with the seed. */
constexpr std::uint64_t kFuzzFirstSeed = 1;
constexpr std::uint64_t kFuzzSeedsPerMode = 200;
constexpr int kSetupReps = 21;

std::string
ratioLabel(double ratio)
{
    if (ratio <= 1.0)
        return "<100%";
    return std::to_string(static_cast<int>(ratio * 100)) + "%";
}

std::string
cellKey(const std::string &app, const std::string &kind,
        const std::string &system, const std::string &ratio)
{
    return app + "/" + kind + "/" + system + "/" + ratio;
}

const char *
systemKey(System sys)
{
    switch (sys) {
      case System::kNoUvm:
        return "workloads.no_uvm_s";
      case System::kUvmOpt:
        return "workloads.uvm_opt_s";
      case System::kUvmDiscard:
        return "workloads.uvm_discard_s";
      case System::kUvmDiscardLazy:
        return "workloads.uvm_discard_lazy_s";
      case System::kManualSwap:
        break;
    }
    return "_other_system_s";
}

using CsvRows = std::vector<std::vector<std::string>>;

CsvRows
readCsv(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    CsvRows rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::vector<std::string> cells;
        std::size_t start = 0;
        for (;;) {
            std::size_t comma = line.find(',', start);
            cells.push_back(line.substr(start, comma - start));
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
        rows.push_back(std::move(cells));
    }
    if (rows.size() < 2)
        throw std::runtime_error(path + ": no data rows");
    return rows;
}

struct TableRun {
    App app;
    System sys;
    double ratio;
};

struct DlRun {
    std::size_t net;
    int batch;
    System sys;
    std::string expect;  ///< committed Figure 6 throughput cell
};

struct PaperCell {
    std::string key;
    std::string app;
    double paper;
};

using Cells = std::map<std::string, std::string>;

struct Plan {
    Cells committed;  ///< Table 3-8 cells of results/, by cellKey
    std::vector<PaperCell> paper;
    std::vector<TableRun> table_runs;
    std::vector<dl::NetSpec> nets;
    std::vector<DlRun> dl_runs;
    std::vector<std::string> scripts;
    /** Committed cells that contradict the run grid (failed once per
     *  pass: a run the committed figure has but the grid skips). */
    std::uint64_t grid_mismatches = 0;
    double gen_s = 0.0;
};

void
loadCommittedTables(const Options &o, Plan &plan)
{
    for (const TableFiles &t : kTableFiles) {
        for (bool runtime : {true, false}) {
            CsvRows rows = readCsv(o.results_dir + "/" +
                                   (runtime ? t.runtime : t.traffic));
            const auto &header = rows[0];
            for (std::size_t r = 1; r < rows.size(); ++r) {
                for (std::size_t c = 1;
                     c < rows[r].size() && c < header.size(); ++c) {
                    std::string cell = rows[r][c];
                    // Runtime cells are "PCIe-3/PCIe-4"; keep PCIe-4.
                    if (runtime)
                        cell = cell.substr(cell.find('/') + 1);
                    plan.committed[cellKey(appName(t.app),
                                           runtime ? "runtime"
                                                   : "traffic",
                                           rows[r][0], header[c])] = cell;
                }
            }
        }
    }
}

void
loadPaper(const Options &o, Plan &plan)
{
    const std::string path = o.root + "/e2ebench/paper_reference.csv";
    CsvRows rows = readCsv(path);
    for (std::size_t r = 1; r < rows.size(); ++r) {
        const auto &row = rows[r];
        if (row.size() != 6)
            throw std::runtime_error(path + ": bad row " +
                                     std::to_string(r + 1));
        plan.paper.push_back(
            {cellKey(row[1], row[2], row[3], row[4]), row[1],
             std::stod(row[5])});
    }
}

System
systemFromName(const std::string &name)
{
    for (System s : {System::kNoUvm, System::kManualSwap, System::kUvmOpt,
                     System::kUvmDiscard, System::kUvmDiscardLazy}) {
        if (name == workloads::toString(s))
            return s;
    }
    throw std::runtime_error("unknown system column '" + name + "'");
}

void
loadDlGrid(const Options &o, Plan &plan)
{
    const uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    plan.nets = dl::NetSpec::all();
    for (std::size_t n = 0; n < plan.nets.size(); ++n) {
        const dl::NetSpec &net = plan.nets[n];
        CsvRows rows = readCsv(o.results_dir + "/fig6_throughput_" +
                               net.name + ".csv");
        const auto &header = rows[0];
        for (std::size_t r = 1; r < rows.size(); ++r) {
            int batch = std::stoi(rows[r][0]);
            for (std::size_t c = 1;
                 c < rows[r].size() && c < header.size(); ++c) {
                System sys = systemFromName(header[c]);
                // No-UVM runs only while the allocation fits (Fig. 6).
                if (sys == System::kNoUvm &&
                    net.allocBytes(batch) > cfg.gpu_memory) {
                    if (rows[r][c] != "-")
                        ++plan.grid_mismatches;
                    continue;
                }
                plan.dl_runs.push_back({n, batch, sys, rows[r][c]});
            }
        }
    }
}

Plan
makePlan(const Options &o)
{
    Plan plan;
    loadCommittedTables(o, plan);
    loadPaper(o, plan);
    std::mt19937_64 rng(o.seed);
    if (o.workload == "paper_tables") {
        for (const TableFiles &t : kTableFiles) {
            for (double ratio : kRatios) {
                for (System sys : kUvmSystems)
                    plan.table_runs.push_back({t.app, sys, ratio});
            }
        }
        std::shuffle(plan.table_runs.begin(), plan.table_runs.end(), rng);
    } else if (o.workload == "dl_train") {
        loadDlGrid(o, plan);
        std::shuffle(plan.dl_runs.begin(), plan.dl_runs.end(), rng);
    } else {
        ScopeTimer t(plan.gen_s);
        for (bool faults : {false, true}) {
            for (std::uint64_t i = 0; i < kFuzzSeedsPerMode; ++i) {
                plan.scripts.push_back(
                    fuzz::generateScenario(kFuzzFirstSeed + i, faults));
            }
        }
        std::shuffle(plan.scripts.begin(), plan.scripts.end(), rng);
    }
    return plan;
}

/** Mean relative error of @p simulated cells against the paper,
 *  overall ("paper_err") and per application ("paper_err.<app>").  A
 *  cell a failed run did not produce is taken from results/. */
Metrics
paperErr(const Plan &plan, const Cells &simulated)
{
    Cells cells = plan.committed;
    for (const auto &[k, v] : simulated)
        cells[k] = v;
    std::map<std::string, std::pair<double, int>> acc;
    for (const PaperCell &pc : plan.paper) {
        auto it = cells.find(pc.key);
        if (it == cells.end())
            throw std::runtime_error("no cell for paper reference " +
                                     pc.key);
        double err = std::fabs(std::stod(it->second) - pc.paper) / pc.paper;
        for (const std::string &k :
             {std::string("paper_err"), "paper_err." + pc.app}) {
            acc[k].first += err;
            acc[k].second += 1;
        }
    }
    Metrics m;
    for (const auto &[k, v] : acc)
        m[k] = v.first / v.second;
    return m;
}

// ------------------------------------------------------------------
// Runs
// ------------------------------------------------------------------

RunResult
runCell(const TableRun &r)
{
    const interconnect::LinkSpec link = interconnect::LinkSpec::pcie4();
    switch (r.app) {
      case App::kFir: {
        workloads::FirParams p;
        p.ovsp_ratio = r.ratio;
        return workloads::runFir(r.sys, p, link);
      }
      case App::kRadix: {
        workloads::RadixParams p;
        p.ovsp_ratio = r.ratio;
        return workloads::runRadixSort(r.sys, p, link);
      }
      case App::kHashJoin: {
        workloads::HashJoinParams p;
        p.ovsp_ratio = r.ratio;
        return workloads::runHashJoin(r.sys, p, link);
      }
    }
    throw std::logic_error("unknown app");
}

/**
 * runRadixSort's lifecycle replayed through the public Runtime API,
 * with the Auditor behind a TimedObserver and every runtime call
 * timed: enqueue calls into cuda.api_s, synchronize/hostTouch into
 * cuda.sync_s.  Must return exactly what runRadixSort returns.
 */
RunResult
radixReplica(System sys, const workloads::RadixParams &p, Metrics &m)
{
    using uvm::AccessKind;
    using uvm::ProcessorId;
    double &api = m["cuda.api_s"];
    double &sync = m["cuda.sync_s"];

    RunResult result;
    result.system = sys;
    result.ovsp_ratio = p.ovsp_ratio;

    cuda::Runtime rt(uvm::UvmConfig::rtx3080ti(),
                     interconnect::LinkSpec::pcie4());
    trace::Auditor auditor;
    TimedObserver shim(auditor);
    rt.driver().setObserver(&shim);

    auto compute = [&](sim::Bytes bytes) {
        return static_cast<sim::SimDuration>(p.compute_ns_per_kib *
                                             (bytes / sim::kKiB));
    };
    auto prefetch = [&](mem::VirtAddr addr) {
        timed(api, [&] {
            rt.prefetchAsync(addr, p.data_bytes, ProcessorId::gpu(0));
        });
    };
    auto discard = [&](mem::VirtAddr addr) {
        timed(api, [&] {
            workloads::discardFor(rt, sys, addr, p.data_bytes,
                                  /*paired_with_prefetch=*/p.use_prefetch);
        });
    };
    auto launch = [&](cuda::KernelDesc k) {
        timed(api, [&] { rt.launch(std::move(k)); });
    };
    auto synchronize = [&] { timed(sync, [&] { rt.synchronize(); }); };

    mem::VirtAddr input = timed(
        api, [&] { return rt.mallocManaged(p.data_bytes, "radix.input"); });
    mem::VirtAddr temp = timed(
        api, [&] { return rt.mallocManaged(p.data_bytes, "radix.temp"); });

    workloads::Occupier occupier(rt, p.footprint(), p.ovsp_ratio);

    timed(sync,
          [&] { rt.hostTouch(input, p.data_bytes, AccessKind::kWrite); });
    prefetch(input);
    synchronize();

    sim::SimTime t0 = rt.now();
    for (int pass = 0; pass < p.passes; ++pass) {
        if (p.use_prefetch)
            prefetch(temp);
        cuda::KernelDesc local;
        local.name = "radix.local" + std::to_string(pass);
        local.accesses = {{input, p.data_bytes, AccessKind::kRead},
                          {temp, p.data_bytes, AccessKind::kWrite},
                          {temp, p.data_bytes, AccessKind::kWrite}};
        local.compute = compute(3 * p.data_bytes);
        launch(std::move(local));

        discard(input);

        if (p.use_prefetch)
            prefetch(input);
        cuda::KernelDesc reorder;
        reorder.name = "radix.reorder" + std::to_string(pass);
        reorder.accesses = {{temp, p.data_bytes, AccessKind::kRead},
                            {input, p.data_bytes, AccessKind::kWrite},
                            {input, p.data_bytes, AccessKind::kWrite}};
        reorder.compute = compute(3 * p.data_bytes);
        launch(std::move(reorder));

        discard(temp);
    }
    synchronize();
    result.elapsed = rt.now() - t0;

    timed(sync,
          [&] { rt.hostTouch(input, p.data_bytes, AccessKind::kRead); });
    synchronize();

    // harvest() runs the Auditor's final classification sweep.
    timed(m["trace.auditor_s"],
          [&] { workloads::harvest(result, rt, auditor); });
    m["trace.auditor_s"] += shim.seconds();
    m["_auditor_hook_s"] += shim.seconds();
    m["trace.auditor_calls"] += shim.calls();
    addDriverCounts(m, rt);
    return result;
}

/** runVerifiedScenario rebuilt from its parts, with the Oracle behind
 *  a TimedObserver and afterOp/finalCheck timed into verify.oracle_s.
 *  Only the wall-clock Watchdog is left out. */
verify::VerifyResult
tracedVerifiedScenario(const std::string &script, Metrics &m)
{
    verify::VerifyResult res;
    verify::Oracle oracle(/*check_content=*/true);
    TimedObserver shim(oracle);
    verify::ProgressMonitor monitor;
    double &oracle_s = m["verify.oracle_s"];

    workloads::ScenarioHooks hooks;
    hooks.observer = &shim;
    hooks.sync_each_op = true;
    hooks.mutate_config = [](uvm::UvmConfig &cfg) {
        cfg.panic_on_violation = false;
        cfg.lazy_contract_warnings = false;
        cfg.backed = true;
    };
    hooks.on_runtime_ready = [&](cuda::Runtime &rt) {
        oracle.attachRuntime(rt);
        rt.driver().setProgressSink(&monitor);
    };
    hooks.after_op = [&](const workloads::ScenarioOp &op,
                         cuda::Runtime &rt) {
        timed(oracle_s, [&] { oracle.afterOp(op, rt); });
    };
    hooks.before_finish = [&](cuda::Runtime &rt) {
        timed(oracle_s, [&] { oracle.finalCheck(rt); });
        addDriverCounts(m, rt);
    };

    try {
        res.stats = workloads::runScenario(script, hooks);
    } catch (const std::exception &e) {
        res.outcome = verify::Outcome::kRuntimeError;
        res.message = e.what();
    }
    oracle_s += shim.seconds();
    res.checks = oracle.checksRun();
    return res;
}

// ------------------------------------------------------------------
// Passes
// ------------------------------------------------------------------

/**
 * Spreads runs over the CPUs the process may use: run i of round r is
 * pinned to CPU (i + r) mod n.  On a shared host the CPUs differ in
 * speed, and left to the scheduler a whole process landed on a fast
 * or a slow one; rotating makes every run visit every CPU.
 */
struct CpuRotation {
    std::vector<int> cpus;
    std::size_t round = 0;

    static std::vector<int>
    allowed()
    {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0)
            return out;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                out.push_back(c);
        }
        return out;
    }

    /** Best effort: a failed pin leaves the run where it is. */
    void
    pin(std::size_t run) const
    {
        if (cpus.size() < 2)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus[(run + round) % cpus.size()], &set);
        sched_setaffinity(0, sizeof(set), &set);
    }
};

// ------------------------------------------------------------------
// Host speed sampling
// ------------------------------------------------------------------

/**
 * Measures how fast the measuring thread's core runs while it runs.
 * On a shared host a core's speed follows other tenants' load on the
 * same physical core and caches, and changes within a second: a fixed
 * kernel took from 1x to 2x its fastest time here, with no steal time
 * reported to the guest, so CPU time slows down as much as wall time.
 *
 * While armed, a POSIX timer interrupts the thread every
 * kSamplePeriodNs.  The signal handler runs a probe that shares no code
 * with uvmd: a dependent pseudo-random read-modify-write walk over a
 * 1 MiB table.  It logs when the probe ended and how long it took.  A
 * run's time less the probes inside it, times kProbeNominalS over the
 * mean probe around the run, is the run's time at the probe's nominal
 * speed: the fastest this host ran it.
 */
class SpeedSampler
{
  public:
    static constexpr long kSamplePeriodNs = 5'000'000;
    static constexpr int kProbeSteps = 500;
    static constexpr double kProbeNominalS = 50e-6;

    SpeedSampler()
    {
        struct sigaction sa{};
        sa.sa_handler = &onTick;
        sa.sa_flags = SA_RESTART;
        sigemptyset(&sa.sa_mask);
        sigevent sev{};
        sev.sigev_notify = SIGEV_THREAD_ID;
        sev.sigev_signo = SIGRTMIN;
        sev._sigev_un._tid = gettid();
        if (sigaction(SIGRTMIN, &sa, nullptr) != 0 ||
            timer_create(CLOCK_MONOTONIC, &sev, &timer_) != 0)
            throw std::runtime_error("cannot create the speed sampler");
    }

    ~SpeedSampler() { timer_delete(timer_); }

    SpeedSampler(const SpeedSampler &) = delete;
    SpeedSampler &operator=(const SpeedSampler &) = delete;

    /** Drop the samples and start sampling. */
    void
    start()
    {
        count_.store(0);
        arm(kSamplePeriodNs);
    }

    void stop() { arm(0); }

    /** Host time of [start, end] (Clock seconds) at nominal speed. */
    double
    nominal(double start, double end) const
    {
        const std::size_t n = count_.load();
        auto before = [](const Sample &s, double t) { return s.end < t; };
        std::size_t lo =
            std::lower_bound(samples_, samples_ + n, start, before) -
            samples_;
        std::size_t hi =
            std::lower_bound(samples_, samples_ + n, end, before) - samples_;
        double probes_inside = 0.0;
        for (std::size_t i = lo; i < hi; ++i)
            probes_inside += samples_[i].took;
        // The nearest sample on either side joins the mean, so a run
        // shorter than the period still has one.
        std::size_t first = lo > 0 ? lo - 1 : lo;
        std::size_t last = hi < n ? hi + 1 : hi;
        if (first == last)
            throw std::runtime_error("no speed sample around a run");
        double took = 0.0;
        for (std::size_t i = first; i < last; ++i)
            took += samples_[i].took;
        const double mean = took / static_cast<double>(last - first);
        return (end - start - probes_inside) * kProbeNominalS / mean;
    }

    /** Median probe time over nominal since start(): the slowdown. */
    double
    medianSlowdown() const
    {
        std::vector<double> v;
        for (std::size_t i = 0; i < count_.load(); ++i)
            v.push_back(samples_[i].took / kProbeNominalS);
        std::sort(v.begin(), v.end());
        return v.empty() ? 0.0 : v[v.size() / 2];
    }

    static double
    now()
    {
        return std::chrono::duration<double>(
                   Clock::now().time_since_epoch())
            .count();
    }

  private:
    struct Sample {
        double end;   ///< Clock seconds when the probe ended
        double took;  ///< probe seconds
    };

    static constexpr std::size_t kCapacity = std::size_t{1} << 16;
    static constexpr std::size_t kTableWords = std::size_t{1} << 18;

    void
    arm(long period_ns)
    {
        itimerspec its{};
        its.it_interval.tv_nsec = period_ns;
        its.it_value.tv_nsec = period_ns;
        timer_settime(timer_, 0, &its, nullptr);
    }

    static void
    onTick(int)
    {
        const int saved_errno = errno;
        const double t0 = now();
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        std::uint32_t prev = 0;
        for (int i = 0; i < kProbeSteps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::uint32_t &e = table_[(x ^ prev) & (kTableWords - 1)];
            prev = e;
            e = e * 2654435761u + static_cast<std::uint32_t>(x >> 32);
        }
        const double t1 = now();
        const std::size_t n = count_.load(std::memory_order_relaxed);
        if (n < kCapacity) {
            samples_[n] = {t1, t1 - t0};
            count_.store(n + 1, std::memory_order_release);
        }
        errno = saved_errno;
    }

    timer_t timer_{};
    static inline std::uint32_t table_[kTableWords];
    static inline Sample samples_[kCapacity];
    static inline std::atomic<std::size_t> count_{0};
};

struct Pass {
    double wall = 0.0;
    std::vector<double> times;  ///< host time of each run, plan order
    std::vector<double> ends;   ///< SpeedSampler::now() after each run
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics m;
    Cells cells;  ///< simulated Table 3-8 cells (paper_tables)
    std::vector<RunResult> runs;
    std::vector<verify::VerifyResult> verified;
};

void
fail(Pass &pass, const std::string &what)
{
    ++pass.failed;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

/** Record one run's host time, plus its workload and system spans when
 *  the pass is plain. */
void
recordRun(Pass &pass, bool traced, double dt, const char *workload_key,
          const char *system_key)
{
    pass.times.push_back(dt);
    pass.ends.push_back(SpeedSampler::now());
    if (!traced) {
        pass.m[workload_key] += dt;
        if (system_key)
            pass.m[system_key] += dt;
    }
}

bool
expectCell(const Plan &plan, Pass &pass, const std::string &key,
           const std::string &value)
{
    pass.cells[key] = value;
    auto it = plan.committed.find(key);
    if (it != plan.committed.end() && it->second == value)
        return true;
    std::fprintf(stderr, "mismatch %s: simulated %s, committed %s\n",
                 key.c_str(), value.c_str(),
                 it == plan.committed.end() ? "(none)"
                                            : it->second.c_str());
    return false;
}

/** Compare each run with its committed runtime and traffic cells. */
void
checkTables(const Plan &plan, Pass &pass, const std::vector<bool> &done)
{
    std::map<std::pair<App, double>, sim::SimDuration> base;
    for (std::size_t i = 0; i < plan.table_runs.size(); ++i) {
        const TableRun &r = plan.table_runs[i];
        if (done[i] && r.sys == System::kUvmOpt)
            base[{r.app, r.ratio}] = pass.runs[i].elapsed;
    }
    for (std::size_t i = 0; i < plan.table_runs.size(); ++i) {
        const TableRun &r = plan.table_runs[i];
        const std::string app = appName(r.app);
        const std::string sys = workloads::toString(r.sys);
        const std::string ratio = ratioLabel(r.ratio);
        if (!done[i])
            continue;  // already failed
        auto b = base.find({r.app, r.ratio});
        if (b == base.end()) {
            fail(pass, app + " " + sys + " " + ratio +
                           ": no UVM-opt run to normalize by");
            continue;
        }
        bool ok = expectCell(
            plan, pass, cellKey(app, "runtime", sys, ratio),
            trace::fmt(static_cast<double>(pass.runs[i].elapsed) /
                       b->second));
        ok &= expectCell(plan, pass, cellKey(app, "traffic", sys, ratio),
                         trace::fmt(pass.runs[i].trafficGb()));
        if (!ok)
            fail(pass, app + " " + sys + " " + ratio);
    }
}

Pass
tablesPass(const Plan &plan, bool traced, const CpuRotation &cpu)
{
    Pass pass;
    pass.runs.resize(plan.table_runs.size());
    std::vector<bool> done(plan.table_runs.size(), false);
    auto t_pass = Clock::now();
    for (std::size_t i = 0; i < plan.table_runs.size(); ++i) {
        const TableRun &r = plan.table_runs[i];
        const double auditor_before = pass.m["trace.auditor_s"];
        cpu.pin(i);
        double dt = 0.0;
        ++pass.attempted;
        try {
            ScopeTimer t(dt);
            if (traced && r.app == App::kRadix) {
                workloads::RadixParams p;
                p.ovsp_ratio = r.ratio;
                pass.runs[i] = radixReplica(r.sys, p, pass.m);
            } else {
                pass.runs[i] = runCell(r);
            }
            done[i] = true;
        } catch (const std::exception &e) {
            fail(pass, std::string(appName(r.app)) + ": " + e.what());
        }
        const std::string app = appName(r.app);
        recordRun(pass, traced, dt, ("workloads." + app + "_s").c_str(),
                  systemKey(r.sys));
        if (traced && done[i])
            addRunCounts(pass.m, pass.runs[i]);
        if (traced && r.app == App::kRadix) {
            double aud = pass.m["trace.auditor_s"] - auditor_before;
            pass.m["_radix_replica_s"] += dt;
            std::fprintf(stderr,
                         "  radix %-14s %-5s replica %.3f s, auditor "
                         "%.3f s (%.1f%%)\n",
                         workloads::toString(r.sys),
                         ratioLabel(r.ratio).c_str(), dt, aud,
                         100.0 * ratio(aud, dt));
        }
    }
    pass.wall = secondsSince(t_pass);
    checkTables(plan, pass, done);
    return pass;
}

Pass
dlPass(const Plan &plan, bool traced, const CpuRotation &cpu)
{
    Pass pass;
    const uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
    auto t_pass = Clock::now();
    for (std::size_t i = 0; i < plan.dl_runs.size(); ++i) {
        const DlRun &r = plan.dl_runs[i];
        cpu.pin(i);
        dl::TrainParams p;
        p.net = plan.nets[r.net];
        p.batch_size = r.batch;
        double dt = 0.0;
        ++pass.attempted;
        const std::string what = p.net.name + " batch " +
                                 std::to_string(r.batch) + " " +
                                 workloads::toString(r.sys);
        try {
            dl::TrainResult res = timed(dt, [&] {
                return dl::runTraining(r.sys, p,
                                       interconnect::LinkSpec::pcie4(),
                                       cfg);
            });
            if (traced)
                addRunCounts(pass.m, res);
            std::string got = trace::fmt(res.throughput, 1);
            if (got != r.expect) {
                fail(pass, what + ": throughput " + got +
                               ", committed " + r.expect);
            }
        } catch (const std::exception &e) {
            fail(pass, what + ": " + e.what());
        }
        recordRun(pass, traced, dt, "workloads.dl_s", systemKey(r.sys));
    }
    pass.wall = secondsSince(t_pass);
    for (std::uint64_t i = 0; i < plan.grid_mismatches; ++i) {
        ++pass.attempted;
        fail(pass, "a Figure 6 No-UVM cell is set where the grid skips "
                   "the run");
    }
    return pass;
}

enum class FuzzMode {
    kLibrary,  ///< verify::runVerifiedScenario
    kTraced,   ///< tracedVerifiedScenario
    kPlain,    ///< workloads::runScenario, no oracle
};

Pass
fuzzPass(const Plan &plan, FuzzMode mode, const CpuRotation &cpu)
{
    Pass pass;
    auto t_pass = Clock::now();
    for (std::size_t i = 0; i < plan.scripts.size(); ++i) {
        const std::string &script = plan.scripts[i];
        cpu.pin(i);
        double dt = 0.0;
        ++pass.attempted;
        if (mode == FuzzMode::kPlain) {
            try {
                timed(dt, [&] { workloads::runScenario(script); });
            } catch (const std::exception &e) {
                fail(pass, std::string("plain scenario: ") + e.what());
            }
            continue;
        }
        verify::VerifyResult res = timed(dt, [&] {
            return mode == FuzzMode::kLibrary
                       ? verify::runVerifiedScenario(script)
                       : tracedVerifiedScenario(script, pass.m);
        });
        recordRun(pass, mode == FuzzMode::kTraced, dt,
                  "workloads.scenario_s", nullptr);
        if (!res.ok()) {
            fail(pass, std::string("fuzz outcome ") +
                           verify::toString(res.outcome) + ": " +
                           res.message);
        }
        if (mode == FuzzMode::kTraced) {
            addRunCounts(pass.m, res.stats);
            pass.m["verify.checks"] += res.checks;
        }
        pass.verified.push_back(std::move(res));
    }
    pass.wall = secondsSince(t_pass);
    return pass;
}

// ------------------------------------------------------------------
// Measurement loops
// ------------------------------------------------------------------

Pass
plainPass(const Plan &plan, const Options &o, const CpuRotation &cpu)
{
    if (o.workload == "paper_tables")
        return tablesPass(plan, false, cpu);
    if (o.workload == "dl_train")
        return dlPass(plan, false, cpu);
    return fuzzPass(plan, FuzzMode::kLibrary, cpu);
}

Pass
tracedPass(const Plan &plan, const Options &o, const CpuRotation &cpu)
{
    if (o.workload == "paper_tables")
        return tablesPass(plan, true, cpu);
    if (o.workload == "dl_train")
        return dlPass(plan, true, cpu);
    return fuzzPass(plan, FuzzMode::kTraced, cpu);
}

/**
 * One plain/traced pair: the per-layer metrics of one pass.  The
 * first pass of a process runs on a cold heap, so pairs alternate
 * which of the two goes first.
 */
Metrics
tracedPair(const Plan &plan, const Options &o, const CpuRotation &cpu,
           bool traced_first, std::uint64_t &attempted,
           std::uint64_t &failed)
{
    Pass traced;
    Pass plain;
    if (traced_first)
        traced = tracedPass(plan, o, cpu);
    plain = plainPass(plan, o, cpu);
    if (!traced_first)
        traced = tracedPass(plan, o, cpu);
    Metrics m;
    std::uint64_t mismatches = 0;
    if (o.workload == "paper_tables") {
        for (std::size_t i = 0; i < plan.table_runs.size(); ++i) {
            if (!sameRun(plain.runs[i], traced.runs[i])) {
                ++mismatches;
                std::fprintf(stderr,
                             "FAILED: traced %s run differs from the "
                             "library run\n",
                             appName(plan.table_runs[i].app));
            }
        }
        m = paperErr(plan, traced.cells);
    } else if (o.workload == "dl_train") {
        m = paperErr(plan, {});
    } else {
        Pass bare = fuzzPass(plan, FuzzMode::kPlain, cpu);
        for (std::size_t i = 0; i < plan.scripts.size(); ++i) {
            const verify::VerifyResult &a = plain.verified[i];
            const verify::VerifyResult &b = traced.verified[i];
            if (a.outcome != b.outcome || a.checks != b.checks ||
                !sameScenario(a.stats, b.stats)) {
                ++mismatches;
                std::fprintf(stderr,
                             "FAILED: shimmed oracle run differs from "
                             "runVerifiedScenario\n");
            }
        }
        attempted += bare.attempted;
        failed += bare.failed;
        m = paperErr(plan, {});
        m["verify.overhead"] = ratio(plain.wall, bare.wall);
        m["verify.checks_per_s"] = ratio(traced.m["verify.checks"],
                                         plain.wall);
        m["verify.gen_s"] = plan.gen_s;
        m["cuda.events_per_s"] =
            ratio(traced.m["cuda.events"], traced.wall);
    }
    attempted += plain.attempted + traced.attempted + mismatches;
    failed += plain.failed + traced.failed + mismatches;

    for (const auto &[k, v] : plain.m)
        m[k] += v;
    for (const auto &[k, v] : traced.m)
        m[k] += v;
    if (o.workload == "paper_tables") {
        m["cuda.events_per_s"] =
            ratio(m["cuda.events"], m["_radix_replica_s"]);
        m["trace.auditor_share"] =
            ratio(m["trace.auditor_s"], m["_radix_replica_s"]);
        m["uvm.residual_s"] =
            std::max(0.0, m["cuda.sync_s"] - m["_auditor_hook_s"]);
    }
    m["trace.auditor_ns_per_call"] =
        1e9 * ratio(m["trace.auditor_s"], m["trace.auditor_calls"]);
    m["trace.redundant_ratio"] =
        ratio(m["_redundant"], m["_required"] + m["_redundant"]);
    m["uvm.evict_free_ratio"] =
        ratio(m["uvm.evictions_discarded"],
              m["uvm.evictions_used"] + m["uvm.evictions_discarded"]);
    m["xfer.skip_ratio"] = ratio(m["xfer.saved_bytes"],
                                 m["xfer.saved_bytes"] +
                                     m["interconnect.bytes_h2d"] +
                                     m["interconnect.bytes_d2h"]);
    m["workloads.longest_run_s"] =
        *std::max_element(plain.times.begin(), plain.times.end());
    m["bench.traced_wall_s"] = traced.wall;
    m["bench.trace_overhead_s"] = traced.wall - plain.wall;
    std::fprintf(stderr,
                 "pair: plain %.3f s, traced %.3f s (overhead %+.3f s)\n",
                 plain.wall, traced.wall, traced.wall - plain.wall);
    return m;
}

void
printResult(std::uint64_t attempted, std::uint64_t failed,
            const MetricDef *defs, std::size_t n, const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < n; ++i) {
        auto it = m.find(defs[i].name);
        double v = it == m.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name, v, defs[i].unit);
    }
    std::printf("}}\n");
}

int
run(const Options &o)
{
    // Set-up: reference data, run grid, fuzz scripts.  Repeated across
    // the CPUs so the reported set-up time is a median, not one sample.
    CpuRotation cpu{CpuRotation::allowed()};
    Plan plan;
    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i) {
        cpu.pin(i);
        double s = 0.0;
        plan = timed(s, [&] { return makePlan(o); });
        setups.push_back(s);
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    auto t_measure = Clock::now();

    if (o.trace) {
        std::vector<Metrics> pairs;
        do {
            cpu.round = pairs.size();
            pairs.push_back(tracedPair(plan, o, cpu, pairs.size() % 2 == 1,
                                       attempted, failed));
        } while (secondsSince(t_measure) < o.seconds);
        Metrics out;
        for (const MetricDef &d : kPerLayer) {
            std::vector<double> v;
            for (Metrics &p : pairs)
                v.push_back(p[d.name]);
            out[d.name] = median(v);
        }
        printResult(attempted, failed, kPerLayer, std::size(kPerLayer),
                    out);
        return 0;
    }

    // Each run's fastest time over the passes: on a shared host,
    // neighbours only ever slow a run down, so the minimum is the
    // steadiest estimate of what the code itself costs.
    std::vector<double> best;
    std::vector<std::vector<double>> nom;
    std::vector<double> slow;
    std::size_t passes = 0;
    Cells cells;
    SpeedSampler sampler;
    do {
        cpu.round = passes;
        sampler.start();
        Pass pass = plainPass(plan, o, cpu);
        sampler.stop();
        attempted += pass.attempted;
        failed += pass.failed;
        if (best.empty()) {
            best = pass.times;
            nom.resize(best.size());
        }
        {
            rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            std::fprintf(stderr, "DIAGRU minflt %ld majflt %ld nivcsw %ld nvcsw %ld utime %.3f stime %.3f\n", ru.ru_minflt, ru.ru_majflt, ru.ru_nivcsw, ru.ru_nvcsw, ru.ru_utime.tv_sec + 1e-6 * ru.ru_utime.tv_usec, ru.ru_stime.tv_sec + 1e-6 * ru.ru_stime.tv_usec);
        }
        double pass_nom = 0;
        for (std::size_t i = 0; i < best.size(); ++i) {
            best[i] = std::min(best[i], pass.times[i]);
            double n = sampler.nominal(pass.ends[i] - pass.times[i], pass.ends[i]);
            nom[i].push_back(n);
            if (pass.times[i] > 0.5)
                std::fprintf(stderr, "DIAGRUN %zu raw %.4f nom %.4f\n", i, pass.times[i], n);
            pass_nom += n;
        }
        slow.push_back(sampler.medianSlowdown());
        std::fprintf(stderr, "DIAGPASS raw %.4f nom %.4f slow %.3f\n", pass.wall, pass_nom, slow.back());
        if (o.workload == "paper_tables")
            cells = pass.cells;
        std::fprintf(stderr,
                     "pass %zu: wall %.3f s, longest run %.3f s, "
                     "failed %llu/%llu\n",
                     ++passes, pass.wall,
                     *std::max_element(pass.times.begin(),
                                       pass.times.end()),
                     static_cast<unsigned long long>(pass.failed),
                     static_cast<unsigned long long>(pass.attempted));
    } while (secondsSince(t_measure) < o.seconds);

    {
        double nmed = 0, nmin = 0, raw = 0;
        for (auto &v : nom) {
            nmed += median(v);
            nmin += *std::min_element(v.begin(), v.end());
        }
        for (double t : best) raw += t;
        std::fprintf(stderr, "DIAG raw_min %.4f nom_med %.4f nom_min %.4f slow_med %.3f\n", raw, nmed, nmin, median(slow));
    }
    Metrics out = paperErr(plan, cells);
    out["setup_s"] = median(setups);
    for (double t : best)
        out["wall_s"] += t;
    out["peak_rss_mb"] = peakRssMib();
    printResult(attempted, failed, kEndToEnd, std::size(kEndToEnd), out);
    return 0;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: uvmd_e2e --workload "
                 "paper_tables|dl_train|verify_fuzz --seed N --seconds S "
                 "--trace 0|1 [--root DIR] [--results-dir DIR]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = v;
            else if (flag == "--seed")
                o.seed = std::stoull(v), have_seed = true;
            else if (flag == "--seconds")
                o.seconds = std::stod(v);
            else if (flag == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (flag == "--root")
                o.root = v;
            else if (flag == "--results-dir")
                o.results_dir = v;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (o.workload != "paper_tables" && o.workload != "dl_train" &&
        o.workload != "verify_fuzz")
        usage("unknown workload '" + o.workload + "'");
    if (!have_seed)
        usage("--seed is required");
    if (o.results_dir.empty())
        o.results_dir = o.root + "/results";
    return o;
}

}  // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
