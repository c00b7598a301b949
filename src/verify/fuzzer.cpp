#include "verify/fuzzer.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "sim/random.hpp"
#include "verify/snapshot.hpp"

namespace uvmd::fuzz {

namespace {

// ------------------------------------------------------------------
// Generation
// ------------------------------------------------------------------

/** A buffer the generated script currently holds. */
struct GenBuffer {
    std::string name;
};

std::string
pickSizeKiB(sim::Rng &rng)
{
    static const int kSizesKiB[] = {64,   128,  256,  512,  1024,
                                    1536, 2048, 3072, 4096, 6144};
    return std::to_string(
               kSizesKiB[rng.below(std::size(kSizesKiB))]) +
           "KiB";
}

}  // namespace

std::string
generateScenario(std::uint64_t seed, bool faults)
{
    sim::Rng rng(seed ^ 0x5eed5eed5eed5eedULL);
    std::ostringstream os;
    os << "# fuzz seed " << seed << (faults ? " (faults)" : "")
       << "\n";

    static const int kMemMiB[] = {8, 12, 16, 24, 32};
    int mem_mib = kMemMiB[rng.below(std::size(kMemMiB))];
    os << "gpu_memory " << mem_mib << "MiB\n";
    static const char *kLinks[] = {"pcie3", "pcie4", "nvlink"};
    os << "link " << kLinks[rng.below(3)] << "\n";
    static const char *kPolicies[] = {"lru", "fifo", "random"};
    os << "policy " << kPolicies[rng.below(3)] << "\n";
    os << "copy_engines " << rng.range(1, 4) << "\n";
    if (rng.chance(0.5))
        os << "coalesce " << (rng.chance(0.5) ? "on" : "off") << "\n";
    if (rng.chance(0.35))
        os << "occupy " << mem_mib / static_cast<int>(rng.range(3, 6))
           << "MiB\n";

    if (faults) {
        os << "inject on\n";
        os << "inject seed " << rng.range(1, 1 << 20) << "\n";
        // Transient-fault rates are kept low enough that exceeding
        // the retry budgets (a legitimately fatal outcome) is
        // effectively impossible: P(fatal) ~ rate^(retries+1).
        if (rng.chance(0.7)) {
            os << "inject dma_fault_rate 0.002\n";
            os << "inject dma_max_retries 6\n";
        }
        if (rng.chance(0.5)) {
            os << "inject alloc_fail_rate 0.02\n";
            os << "inject alloc_max_retries 3\n";
        }
        if (rng.chance(0.4)) {
            os << "inject chunk_retire_rate 0.0005\n";
            os << "inject chunk_retire_floor 2\n";
        }
        if (rng.chance(0.5))
            os << "inject oom_fallback on\n";
        if (rng.chance(0.3))
            os << "inject degrade_link 0."
               << rng.range(3, 9) << " after " << rng.range(10, 200)
               << "\n";
        if (rng.chance(0.3))
            os << "inject offline_engine "
               << (rng.chance(0.5) ? "h2d" : "d2h") << " 0 after "
               << rng.range(10, 200) << "\n";
    }

    std::vector<GenBuffer> live;
    int name_counter = 0;
    auto alloc_one = [&]() {
        GenBuffer b{"b"};
        b.name += std::to_string(name_counter++);
        os << "alloc " << b.name << " " << pickSizeKiB(rng) << "\n";
        live.push_back(b);
    };
    auto pick = [&]() -> const std::string & {
        return live[rng.below(live.size())].name;
    };

    alloc_one();  // every scenario holds at least one buffer

    std::uint64_t ops = rng.range(5, 40);
    for (std::uint64_t i = 0; i < ops; ++i) {
        // Weighted op choice; alloc/free keep the live set in [1, 4].
        std::uint64_t roll = rng.below(100);
        if (roll < 10 && live.size() < 4) {
            alloc_one();
        } else if (roll < 14 && live.size() > 1) {
            std::size_t idx = rng.below(live.size());
            os << "free " << live[idx].name << "\n";
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        } else if (roll < 30) {
            os << "host_write " << pick() << "\n";
        } else if (roll < 38) {
            os << "host_read " << pick() << "\n";
        } else if (roll < 52) {
            os << "prefetch " << pick() << " "
               << (rng.chance(0.75) ? "gpu" : "cpu") << "\n";
        } else if (roll < 68) {
            os << "discard " << pick() << " "
               << (rng.chance(0.5) ? "eager" : "lazy") << "\n";
        } else if (roll < 72) {
            static const char *kAdvice[] = {"accessed_by",
                                            "prefer_cpu", "unset"};
            os << "advise " << pick() << " "
               << kAdvice[rng.below(3)] << "\n";
        } else if (roll < 94) {
            os << "kernel k" << i;
            std::uint64_t nbuf =
                std::min<std::uint64_t>(rng.range(1, 3), live.size());
            static const char *kModes[] = {"read", "write", "rw"};
            for (std::uint64_t a = 0; a < nbuf; ++a)
                os << " " << kModes[rng.below(3)] << " " << pick();
            os << " compute " << rng.range(10, 500) << "us\n";
        } else {
            os << "sync\n";
        }
    }
    os << "sync\n";
    return os.str();
}

// ------------------------------------------------------------------
// Shrinking
// ------------------------------------------------------------------

namespace {

std::vector<std::string>
splitLines(const std::string &script)
{
    std::vector<std::string> lines;
    std::istringstream in(script);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const auto &l : lines) {
        out += l;
        out += '\n';
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &content)
{
    if (path.empty())
        return;
    std::ofstream out(path, std::ios::trunc);
    out << content;
}

/** "1536KiB" -> halved "768KiB"; "" if not shrinkable further. */
std::string
halveSizeToken(const std::string &tok)
{
    std::size_t i = 0;
    while (i < tok.size() &&
           std::isdigit(static_cast<unsigned char>(tok[i])))
        ++i;
    if (i == 0)
        return "";
    long value = std::stol(tok.substr(0, i));
    if (value <= 64 && tok.substr(i) == "KiB")
        return "";  // floor: one 64 KiB buffer
    long halved = std::max<long>(value / 2, 1);
    if (halved == value)
        return "";
    return std::to_string(halved) + tok.substr(i);
}

/** Upper bound on shrink candidate executions per failure. */
constexpr std::uint64_t kShrinkRunsBudget = 2000;

}  // namespace

std::string
shrinkScenario(const std::string &script,
               const verify::VerifyOptions &opts,
               verify::Outcome target, const std::string &candidate_path)
{
    // Shrink candidates run with a tightened wall-clock so a campaign
    // never stalls on a pathological candidate.
    verify::VerifyOptions copts = opts;
    if (copts.wall_clock_ms == 0 || copts.wall_clock_ms > 10000)
        copts.wall_clock_ms = 10000;

    std::uint64_t runs = 0;
    auto reproduces = [&](const std::string &candidate) {
        if (runs >= kShrinkRunsBudget)
            return false;
        ++runs;
        writeFile(candidate_path, candidate);
        return verify::runVerifiedScenario(candidate, copts).outcome ==
               target;
    };

    std::vector<std::string> lines = splitLines(script);

    // Phase 1: delta-debug whole lines, large windows first.  A
    // removal that breaks a buffer reference just yields a parse
    // error, which never matches `target` — validity is enforced by
    // the reproduction test itself.
    bool progress = true;
    while (progress && runs < kShrinkRunsBudget) {
        progress = false;
        for (std::size_t win =
                 std::max<std::size_t>(1, lines.size() / 2);
             win >= 1; win /= 2) {
            for (std::size_t i = 0;
                 i + win <= lines.size() && runs < kShrinkRunsBudget;) {
                std::vector<std::string> candidate;
                candidate.reserve(lines.size() - win);
                candidate.insert(candidate.end(), lines.begin(),
                                 lines.begin() +
                                     static_cast<std::ptrdiff_t>(i));
                candidate.insert(candidate.end(),
                                 lines.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         i + win),
                                 lines.end());
                if (reproduces(joinLines(candidate))) {
                    lines = std::move(candidate);
                    progress = true;
                    // Same index now holds the next window.
                } else {
                    ++i;
                }
            }
            if (win == 1)
                break;
        }
    }

    // Phase 2: operand minimization on the surviving lines.
    progress = true;
    while (progress && runs < kShrinkRunsBudget) {
        progress = false;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            std::istringstream ls(lines[i]);
            std::vector<std::string> toks;
            std::string t;
            while (ls >> t)
                toks.push_back(t);
            if (toks.empty())
                continue;

            if ((toks[0] == "alloc" && toks.size() == 3) ||
                (toks[0] == "occupy" && toks.size() == 2)) {
                std::string smaller = halveSizeToken(toks.back());
                if (!smaller.empty()) {
                    std::vector<std::string> saved = lines;
                    std::string line = toks[0];
                    for (std::size_t k = 1; k + 1 < toks.size(); ++k)
                        line += " " + toks[k];
                    line += " " + smaller;
                    lines[i] = line;
                    if (reproduces(joinLines(lines)))
                        progress = true;
                    else
                        lines = std::move(saved);
                }
            } else if (toks[0] == "kernel" && toks.size() > 4) {
                // Try dropping one clause pair (read/write/rw/compute
                // + operand) at a time.
                for (std::size_t p = 2; p + 1 < toks.size(); p += 2) {
                    std::vector<std::string> fewer = toks;
                    fewer.erase(fewer.begin() +
                                    static_cast<std::ptrdiff_t>(p),
                                fewer.begin() +
                                    static_cast<std::ptrdiff_t>(p + 2));
                    std::string line;
                    for (const auto &w : fewer)
                        line += (line.empty() ? "" : " ") + w;
                    std::vector<std::string> saved = lines;
                    lines[i] = line;
                    if (reproduces(joinLines(lines))) {
                        progress = true;
                        break;  // re-tokenize on the next sweep
                    }
                    lines = std::move(saved);
                }
            }
        }
    }

    return joinLines(lines);
}

// ------------------------------------------------------------------
// Single seed + campaign
// ------------------------------------------------------------------

bool
FuzzCaseResult::failed() const
{
    return result.outcome != verify::Outcome::kOk;
}

FuzzCaseResult
runSeed(std::uint64_t seed, const FuzzOptions &opts)
{
    namespace fs = std::filesystem;
    FuzzCaseResult r;
    r.seed = seed;
    r.scenario = generateScenario(seed, opts.faults);

    verify::VerifyOptions vopts = opts.verify;
    if (vopts.label.empty())
        vopts.label = "fuzz seed " + std::to_string(seed);

    std::string candidate_path;
    std::string dir = opts.artifact_dir.empty() ? "." : opts.artifact_dir;
    if (opts.write_artifacts) {
        std::error_code ec;
        fs::create_directories(dir, ec);
        candidate_path =
            dir + "/candidate_" + std::to_string(seed) + ".uvm";
        // On disk before the run: a wall-clock _Exit still leaves the
        // input that hung.
        writeFile(candidate_path, r.scenario);
    }

    r.result = verify::runVerifiedScenario(r.scenario, vopts);

    if (!r.failed()) {
        if (!candidate_path.empty()) {
            std::error_code ec;
            fs::remove(candidate_path, ec);
        }
        return r;
    }

    r.repro = r.scenario;
    if (opts.shrink) {
        r.repro = shrinkScenario(r.scenario, vopts, r.result.outcome,
                                 candidate_path);
        // Re-run the minimal reproducer so the stored report matches
        // the stored script.
        verify::VerifyResult final_run =
            verify::runVerifiedScenario(r.repro, vopts);
        if (final_run.outcome == r.result.outcome)
            r.result = final_run;
    }

    if (opts.write_artifacts) {
        r.repro_path = dir + "/repro_" + std::to_string(seed) + ".uvm";
        writeFile(r.repro_path, r.repro);
        r.report_path =
            dir + "/diverge_" + std::to_string(seed) + ".json";
        std::string report = r.result.report;
        if (report.empty()) {
            report = "{\"kind\":\"" +
                     std::string(verify::toString(r.result.outcome)) +
                     "\",\"message\":\"" +
                     verify::jsonEscape(r.result.message) + "\"}";
        }
        writeFile(r.report_path, report);
        if (!candidate_path.empty()) {
            std::error_code ec;
            fs::remove(candidate_path, ec);
        }
    }
    return r;
}

CampaignResult
runCampaign(std::uint64_t first_seed, std::uint64_t count,
            const FuzzOptions &opts, std::ostream *progress)
{
    CampaignResult c;
    for (std::uint64_t s = first_seed; s < first_seed + count; ++s) {
        FuzzCaseResult r = runSeed(s, opts);
        ++c.seeds_run;
        c.total_checks += r.result.checks;
        if (r.failed()) {
            ++c.failures;
            if (progress) {
                *progress << "seed " << s << ": "
                          << verify::toString(r.result.outcome) << " — "
                          << r.result.message;
                if (!r.repro_path.empty())
                    *progress << " (repro: " << r.repro_path << ")";
                *progress << "\n";
            }
            c.failed.push_back(std::move(r));
        } else if (progress && (c.seeds_run % 100) == 0) {
            *progress << c.seeds_run << "/" << count << " seeds, "
                      << c.failures << " failures, "
                      << c.total_checks << " checks\n";
        }
    }
    return c;
}

}  // namespace uvmd::fuzz
