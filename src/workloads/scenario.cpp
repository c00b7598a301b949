#include "workloads/scenario.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "cuda/runtime.hpp"
#include "sim/logging.hpp"
#include "trace/auditor.hpp"

namespace uvmd::workloads {

namespace {

/** The configuration directives, which must precede every op. */
constexpr std::string_view kConfigDirectives[] = {
    "gpu_memory", "inject",   "link",         "policy",
    "occupy",     "coalesce", "copy_engines", "deadline"};

[[noreturn]] void
scriptError(std::size_t line_no, const std::string &msg)
{
    // Same wire format fatal() produces, but typed: harnesses (exit
    // codes, the fuzzer's shrinker) must distinguish invalid programs
    // from programs that failed.
    throw ScenarioParseError(line_no, "scenario line " +
                                          std::to_string(line_no) +
                                          ": " + msg);
}

/** Parse "64MB", "4KiB", "2GB" into bytes. */
sim::Bytes
parseSize(std::size_t line_no, const std::string &token)
{
    std::size_t pos = 0;
    double value = 0;
    try {
        value = std::stod(token, &pos);
    } catch (const std::exception &) {
        scriptError(line_no, "bad size '" + token + "'");
    }
    std::string unit = token.substr(pos);
    double factor = 0;
    if (unit == "B" || unit.empty())
        factor = 1;
    else if (unit == "KB")
        factor = 1e3;
    else if (unit == "MB")
        factor = 1e6;
    else if (unit == "GB")
        factor = 1e9;
    else if (unit == "KiB")
        factor = sim::kKiB;
    else if (unit == "MiB")
        factor = sim::kMiB;
    else if (unit == "GiB")
        factor = sim::kGiB;
    else
        scriptError(line_no, "bad size unit '" + unit + "'");
    double bytes = value * factor;
    // Negative sizes would wrap to huge unsigned values, and absurd
    // ones overflow downstream arithmetic; both are script bugs.
    if (!(bytes >= 0))
        scriptError(line_no, "negative size '" + token + "'");
    if (bytes > static_cast<double>(sim::Bytes{1} << 62))
        scriptError(line_no, "size '" + token + "' is implausibly "
                             "large");
    return static_cast<sim::Bytes>(bytes);
}

/** Parse "500us", "3ms", "1s" into a duration. */
sim::SimDuration
parseDuration(std::size_t line_no, const std::string &token)
{
    std::size_t pos = 0;
    double value = 0;
    try {
        value = std::stod(token, &pos);
    } catch (const std::exception &) {
        scriptError(line_no, "bad duration '" + token + "'");
    }
    if (!(value >= 0))
        scriptError(line_no, "negative duration '" + token + "'");
    std::string unit = token.substr(pos);
    double factor = 0;
    if (unit == "ns")
        factor = 1;
    else if (unit == "us")
        factor = 1e3;
    else if (unit == "ms")
        factor = 1e6;
    else if (unit == "s")
        factor = 1e9;
    else
        scriptError(line_no, "bad duration unit '" + unit + "'");
    // Infinite or absurd durations would overflow the int64
    // nanosecond cast (undefined behaviour) and the clock sums
    // downstream; cap them as parseSize caps sizes.
    double ns = value * factor;
    if (!(ns <= static_cast<double>(sim::SimDuration{1} << 62)))
        scriptError(line_no, "duration '" + token + "' is implausibly "
                             "long");
    return sim::nanoseconds(ns);
}

/** Parse a whole-token non-negative integer ("5", "1000"). */
std::uint64_t
parseCount(std::size_t line_no, const std::string &token)
{
    std::size_t pos = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(token, &pos);
    } catch (const std::exception &) {
        pos = 0;
    }
    if (pos != token.size() || token[0] == '-')
        scriptError(line_no, "bad count '" + token + "'");
    return v;
}

/** Parse a whole-token probability in [0, 1]. */
double
parseRate(std::size_t line_no, const std::string &token)
{
    std::size_t pos = 0;
    double v = 0;
    try {
        v = std::stod(token, &pos);
    } catch (const std::exception &) {
        pos = 0;
    }
    if (pos != token.size() || !(v >= 0.0) || !(v <= 1.0))
        scriptError(line_no,
                    "bad rate '" + token + "' (want 0..1)");
    return v;
}

bool
parseOnOff(std::size_t line_no, const std::string &token)
{
    if (token == "on")
        return true;
    if (token == "off")
        return false;
    scriptError(line_no, "expected on|off, got '" + token + "'");
}

using Buffer = ScenarioBufferInfo;

/** Parses header directives, then replays the op lines. */
class ScenarioInterpreter
{
  public:
    ScenarioInterpreter(const std::string &script,
                        const ScenarioHooks &hooks)
        : hooks_(hooks)
    {
        std::istringstream in(script);
        std::string raw;
        std::size_t line_no = 0;
        while (std::getline(in, raw)) {
            ++line_no;
            auto hash = raw.find('#');
            if (hash != std::string::npos)
                raw.erase(hash);
            std::istringstream ls(raw);
            std::vector<std::string> tokens;
            std::string tok;
            while (ls >> tok)
                tokens.push_back(tok);
            if (!tokens.empty())
                lines_.push_back({line_no, std::move(tokens)});
        }
    }

  private:
    using Line = std::pair<std::size_t, std::vector<std::string>>;

    const std::string &
    argStr(std::size_t i, std::size_t k)
    {
        const auto &[line_no, tokens] = lines_[i];
        if (k >= tokens.size())
            scriptError(line_no, "missing argument");
        return tokens[k];
    }

    template <typename Fn>
    auto
    arg(std::size_t i, std::size_t k, Fn parse)
    {
        return parse(lines_[i].first, argStr(i, k));
    }

    Buffer &
    buffer(std::size_t i, const std::string &name)
    {
        auto it = buffers_.find(name);
        if (it == buffers_.end())
            scriptError(lines_[i].first,
                        "unknown buffer '" + name + "'");
        return it->second;
    }

    /** Fixed-arity commands reject trailing operands: silently
     *  ignoring them hides typos like "alloc a 4MiB 8MiB". */
    void
    arity(std::size_t i, std::size_t n)
    {
        const auto &[line_no, tokens] = lines_[i];
        if (tokens.size() != n)
            scriptError(line_no,
                        "'" + tokens[0] + "' takes " +
                            std::to_string(n - 1) + " operand(s), got " +
                            std::to_string(tokens.size() - 1));
    }

    /** `inject <knob> ...` fault-plan directives (config pass). */
    void
    injectDirective(std::size_t i, uvm::UvmConfig &cfg)
    {
        const auto &[line_no, tokens] = lines_[i];
        sim::FaultPlan &f = cfg.faults;
        const std::string &knob = argStr(i, 1);
        if (knob == "on") {
            arity(i, 2);
        } else if (knob == "seed") {
            arity(i, 3);
            f.seed = arg(i, 2, &parseCount);
        } else if (knob == "dma_fault_rate") {
            arity(i, 3);
            f.dma_fault_rate = arg(i, 2, &parseRate);
        } else if (knob == "dma_max_retries") {
            arity(i, 3);
            f.dma_max_retries =
                static_cast<int>(arg(i, 2, &parseCount));
        } else if (knob == "dma_backoff") {
            arity(i, 3);
            f.dma_retry_backoff = arg(i, 2, &parseDuration);
        } else if (knob == "alloc_fail_rate") {
            arity(i, 3);
            f.alloc_fail_rate = arg(i, 2, &parseRate);
        } else if (knob == "alloc_max_retries") {
            arity(i, 3);
            f.alloc_max_retries =
                static_cast<int>(arg(i, 2, &parseCount));
        } else if (knob == "chunk_retire_rate") {
            arity(i, 3);
            f.chunk_retire_rate = arg(i, 2, &parseRate);
        } else if (knob == "chunk_retire_floor") {
            arity(i, 3);
            f.chunk_retire_floor = arg(i, 2, &parseCount);
        } else if (knob == "oom_fallback") {
            arity(i, 3);
            f.oom_remote_fallback = arg(i, 2, &parseOnOff);
        } else if (knob == "degrade_link") {
            // inject degrade_link <factor> after <descriptors>
            arity(i, 5);
            sim::LinkFaultEvent ev;
            double factor = arg(i, 2, &parseRate);
            if (factor <= 0.0)
                scriptError(line_no, "degrade factor must be > 0");
            ev.bandwidth_factor = factor;
            if (argStr(i, 3) != "after")
                scriptError(line_no, "expected 'after'");
            ev.after_descriptors = arg(i, 4, &parseCount);
            f.link_events.push_back(ev);
        } else if (knob == "offline_engine") {
            // inject offline_engine h2d|d2h <index> after <descriptors>
            arity(i, 6);
            sim::LinkFaultEvent ev;
            const std::string &dir = argStr(i, 2);
            if (dir == "h2d")
                ev.offline_dir = 0;
            else if (dir == "d2h")
                ev.offline_dir = 1;
            else
                scriptError(line_no, "expected h2d|d2h");
            ev.offline_engine =
                static_cast<int>(arg(i, 3, &parseCount));
            if (argStr(i, 4) != "after")
                scriptError(line_no, "expected 'after'");
            ev.after_descriptors = arg(i, 5, &parseCount);
            f.link_events.push_back(ev);
        } else {
            scriptError(line_no,
                        "unknown inject knob '" + knob + "'");
        }
        f.enabled = true;
    }


  public:
    ScenarioResult
    run()
    {
        // Pass 1: configuration directives (must precede ops).
        uvm::UvmConfig cfg = uvm::UvmConfig::rtx3080ti();
        interconnect::LinkSpec link = interconnect::LinkSpec::pcie4();
        sim::Bytes occupy = 0;
        std::size_t first_op = lines_.size();
        for (std::size_t i = 0; i < lines_.size(); ++i) {
            const auto &[line_no, tokens] = lines_[i];
            const std::string &cmd = tokens[0];
            if (!std::ranges::count(kConfigDirectives, cmd)) {
                first_op = i;
                break;
            }
            if (cmd == "gpu_memory") {
                arity(i, 2);
                cfg.gpu_memory = arg(i, 1, &parseSize);
                if (cfg.gpu_memory > 1024 * sim::kGiB)
                    scriptError(line_no,
                                "gpu_memory above 1TiB is not a real "
                                "GPU");
            } else if (cmd == "inject") {
                injectDirective(i, cfg);
            } else if (cmd == "link") {
                arity(i, 2);
                const std::string &name = argStr(i, 1);
                if (name == "pcie3")
                    link = interconnect::LinkSpec::pcie3();
                else if (name == "pcie4")
                    link = interconnect::LinkSpec::pcie4();
                else if (name == "nvlink")
                    link = interconnect::LinkSpec::nvlink();
                else
                    scriptError(line_no, "unknown link '" + name + "'");
            } else if (cmd == "policy") {
                arity(i, 2);
                const std::string &name = argStr(i, 1);
                if (name == "lru")
                    cfg.eviction_policy = uvm::EvictionPolicy::kLru;
                else if (name == "fifo")
                    cfg.eviction_policy = uvm::EvictionPolicy::kFifo;
                else if (name == "random")
                    cfg.eviction_policy = uvm::EvictionPolicy::kRandom;
                else
                    scriptError(line_no,
                                "unknown policy '" + name + "'");
            } else if (cmd == "occupy") {
                arity(i, 2);
                occupy = arg(i, 1, &parseSize);
            } else if (cmd == "copy_engines") {
                arity(i, 2);
                std::uint64_t n = arg(i, 1, &parseCount);
                if (n < 1 || n > 64)
                    scriptError(line_no, "copy_engines wants 1..64 "
                                         "engines per direction");
                cfg.copy_engines_per_dir = static_cast<int>(n);
            } else if (cmd == "coalesce") {
                arity(i, 2);
                const std::string &v = argStr(i, 1);
                if (v == "on")
                    cfg.coalesce_transfers = true;
                else if (v == "off")
                    cfg.coalesce_transfers = false;
                else
                    scriptError(line_no,
                                "coalesce expects on|off, got '" + v +
                                    "'");
            } else if (cmd == "deadline") {
                arity(i, 2);
                sim::SimDuration d = arg(i, 1, &parseDuration);
                if (d <= 0)
                    scriptError(line_no, "deadline must be positive");
                if (hooks_.on_deadline)
                    hooks_.on_deadline(d);
            }
        }

        if (hooks_.mutate_config)
            hooks_.mutate_config(cfg);

        rt_ = std::make_unique<cuda::Runtime>(cfg, link);
        if (hooks_.observer) {
            mux_.add(&auditor_);
            mux_.add(hooks_.observer);
            rt_->driver().setObserver(&mux_);
        } else {
            rt_->driver().setObserver(&auditor_);
        }
        if (occupy > 0)
            rt_->driver().reserveGpuMemory(0, occupy);
        if (hooks_.on_runtime_ready)
            hooks_.on_runtime_ready(*rt_);

        // Pass 2: operations.
        std::size_t op_index = 0;
        for (std::size_t i = first_op; i < lines_.size(); ++i) {
            executeOp(i);
            if (hooks_.sync_each_op)
                rt_->synchronize();
            if (hooks_.after_op) {
                ScenarioOp op;
                op.index = op_index;
                op.line_no = lines_[i].first;
                op.tokens = &lines_[i].second;
                op.buffers = &buffers_;
                hooks_.after_op(op, *rt_);
            }
            ++op_index;
        }
        rt_->synchronize();
        if (hooks_.before_finish)
            hooks_.before_finish(*rt_);

        ScenarioResult result;
        result.elapsed = rt_->now();
        harvest(result, *rt_, auditor_);
        std::ostringstream report;
        auditor_.report(report);
        result.advisor_report = report.str();
        return result;
    }

  private:
    void
    executeOp(std::size_t i)
    {
        const auto &[line_no, tokens] = lines_[i];
        const std::string &cmd = tokens[0];

        if (cmd == "alloc") {
            arity(i, 3);
            const std::string &name = argStr(i, 1);
            if (buffers_.count(name))
                scriptError(line_no, "buffer '" + name +
                                         "' already exists");
            sim::Bytes size = arg(i, 2, &parseSize);
            if (size > 64 * sim::kGiB)
                scriptError(line_no,
                            "allocation above 64GiB exceeds the "
                            "simulated VA budget");
            buffers_[name] = {rt_->mallocManaged(size, name), size};
        } else if (cmd == "free") {
            arity(i, 2);
            const std::string &name = argStr(i, 1);
            Buffer &b = buffer(i, name);
            rt_->freeManaged(b.addr);
            buffers_.erase(name);
        } else if (cmd == "host_write" || cmd == "host_read") {
            arity(i, 2);
            Buffer &b = buffer(i, argStr(i, 1));
            rt_->hostTouch(b.addr, b.size,
                           cmd == "host_write"
                               ? uvm::AccessKind::kWrite
                               : uvm::AccessKind::kRead);
        } else if (cmd == "prefetch") {
            arity(i, 3);
            Buffer &b = buffer(i, argStr(i, 1));
            const std::string &dst = argStr(i, 2);
            if (dst == "gpu") {
                rt_->prefetchAsync(b.addr, b.size,
                                   uvm::ProcessorId::gpu(0));
            } else if (dst == "cpu") {
                rt_->prefetchAsync(b.addr, b.size,
                                   uvm::ProcessorId::cpu());
            } else {
                scriptError(line_no,
                            "prefetch destination must be gpu|cpu");
            }
        } else if (cmd == "discard") {
            arity(i, 3);
            Buffer &b = buffer(i, argStr(i, 1));
            const std::string &mode = argStr(i, 2);
            if (mode != "eager" && mode != "lazy")
                scriptError(line_no, "discard mode must be eager|lazy");
            rt_->discardAsync(b.addr, b.size,
                              mode == "eager"
                                  ? uvm::DiscardMode::kEager
                                  : uvm::DiscardMode::kLazy);
        } else if (cmd == "advise") {
            arity(i, 3);
            Buffer &b = buffer(i, argStr(i, 1));
            const std::string &advice = argStr(i, 2);
            if (advice == "accessed_by") {
                rt_->memAdvise(b.addr, b.size,
                               uvm::MemAdvise::kSetAccessedBy);
            } else if (advice == "prefer_cpu") {
                rt_->memAdvise(
                    b.addr, b.size,
                    uvm::MemAdvise::kSetPreferredLocationCpu);
            } else if (advice == "unset") {
                rt_->memAdvise(b.addr, b.size,
                               uvm::MemAdvise::kUnsetAccessedBy);
                rt_->memAdvise(
                    b.addr, b.size,
                    uvm::MemAdvise::kUnsetPreferredLocation);
            } else {
                scriptError(line_no,
                            "advice must be accessed_by|prefer_cpu|"
                            "unset");
            }
        } else if (cmd == "kernel") {
            cuda::KernelDesc k;
            k.name = argStr(i, 1);
            std::size_t pos = 2;
            const auto &toks = tokens;
            while (pos < toks.size()) {
                const std::string &word = toks[pos];
                if (word == "compute") {
                    k.compute = arg(i, pos + 1, &parseDuration);
                    pos += 2;
                } else if (word == "read" || word == "write" ||
                           word == "rw") {
                    Buffer &b = buffer(i, argStr(i, pos + 1));
                    uvm::AccessKind kind =
                        word == "read"
                            ? uvm::AccessKind::kRead
                            : word == "write"
                                  ? uvm::AccessKind::kWrite
                                  : uvm::AccessKind::kReadWrite;
                    k.accesses.push_back({b.addr, b.size, kind});
                    pos += 2;
                } else {
                    scriptError(line_no,
                                "unexpected token '" + word +
                                    "' in kernel");
                }
            }
            rt_->launch(k);
        } else if (cmd == "sync") {
            arity(i, 1);
            rt_->synchronize();
        } else if (std::ranges::count(kConfigDirectives, cmd)) {
            scriptError(line_no,
                        "configuration directives must precede all "
                        "operations");
        } else {
            scriptError(line_no, "unknown command '" + cmd + "'");
        }
    }

    ScenarioHooks hooks_;
    std::vector<Line> lines_;
    std::unique_ptr<cuda::Runtime> rt_;
    trace::Auditor auditor_;
    uvm::ObserverMux mux_;
    std::map<std::string, Buffer> buffers_;
};

}  // namespace

std::string
ScenarioResult::summary() const
{
    std::ostringstream os;
    os << "simulated time:    " << sim::formatDuration(elapsed) << "\n"
       << "traffic h2d:       " << sim::formatBytes(traffic_h2d) << "\n"
       << "traffic d2h:       " << sim::formatBytes(traffic_d2h) << "\n"
       << "required:          " << sim::formatBytes(required) << "\n"
       << "redundant:         " << sim::formatBytes(redundant) << "\n"
       << "skipped (discard): " << sim::formatBytes(skipped_by_discard)
       << "\n"
       << "gpu fault batches: " << gpu_fault_batches << "\n"
       << "evictions (used):  " << evictions_used << "\n"
       << "evictions (disc.): " << evictions_discarded << "\n";
    // Fault-injection lines appear only when something actually fired,
    // so fault-free summaries stay byte-identical to the old format.
    if (fault_injected)
        os << "faults injected:   " << fault_injected << "\n";
    if (transfer_retries)
        os << "transfer retries:  " << transfer_retries << "\n";
    if (pages_retired)
        os << "pages retired:     " << pages_retired << "\n";
    if (oom_fallbacks)
        os << "oom fallbacks:     " << oom_fallbacks << "\n";
    os << advisor_report;
    return os.str();
}

ScenarioResult
runScenario(const std::string &script)
{
    return runScenario(script, ScenarioHooks{});
}

ScenarioResult
runScenario(const std::string &script, const ScenarioHooks &hooks)
{
    return ScenarioInterpreter(script, hooks).run();
}

ScenarioResult
runScenarioFile(const std::string &path)
{
    return runScenarioFile(path, ScenarioHooks{});
}

ScenarioResult
runScenarioFile(const std::string &path, const ScenarioHooks &hooks)
{
    std::ifstream in(path);
    if (!in)
        sim::fatal("scenario: cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return runScenario(buf.str(), hooks);
}

}  // namespace uvmd::workloads
