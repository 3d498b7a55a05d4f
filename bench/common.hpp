// Shared options + output helpers for the figure-reproduction benches.
//
// Every bench prints:
//   * a header naming the paper figure it regenerates,
//   * the same series/rows the paper plots (machine-greppable columns),
//   * SHAPE-CHECK lines asserting the qualitative result the paper reports
//     (who wins, the period, the transition) — PASS/FAIL.
//
// Every bench binary accepts the same command line, parsed once by
// parse_options():
//
//   --jobs N      worker threads for parallel sweeps; 0 or a bare --jobs
//                 auto-detects the hardware concurrency (also the default)
//   --seed S      override the bench's base seed
//   --json        machine-readable rows on stdout; human chatter -> stderr
//   --quiet       suppress human chatter entirely (checks still counted)
//   --trace FILE  write a JSONL trace of the run's events (obs layer)
//   --out FILE    write a run manifest (manifest.json) on exit
//   --sample-every SEC  run the ResourceSampler at this sim-time cadence
//                 (benches forward opts().sample_every to their configs)
//   --profile     wall-clock self-profiler: per-label count/total/max in
//                 the manifest's "profile" section + a table on exit
//
// Bench-specific flags are whitelisted through OptionsSpec::extra;
// anything else is a usage error (exit 2). The returned Options owns the
// bench's obs::RunContext — pass &opts().ctx to scenario builders or
// ExperimentConfig::obs to trace, and footer() seals the manifest.
//
// Output discipline: with no flags, stdout is byte-identical to the
// pre-options benches (figures are diffed across runs and --jobs values).
#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/flags.hpp"
#include "obs/run_context.hpp"
#include "parallel/task_pool.hpp"

namespace routesync::bench {

inline int g_failed_checks = 0;

struct Options {
    std::size_t jobs = parallel::hardware_jobs();
    std::uint64_t seed = 0;
    bool seed_set = false;
    bool json = false;
    bool quiet = false;
    std::string trace; ///< JSONL trace path ("" = tracing off)
    std::string out;   ///< manifest path ("" = no manifest)
    /// ResourceSampler cadence in sim seconds (0 = sampling off). Benches
    /// forward this to ExperimentConfig::sample_every / scenario configs.
    double sample_every = 0.0;
    bool profile = false; ///< wall-clock self-profiler on
    /// Synchronization observatory (obs/sync_monitor.hpp): benches
    /// forward this to ExperimentConfig::monitor / scenario configs.
    /// Off by default with nil overhead.
    bool monitor = false;
    /// Values of the OptionsSpec::extra flags that were present.
    cli::Flags extra;
    /// Unrecognised argv tokens, in order — only populated under
    /// OptionsSpec::allow_unknown (perf_microbench forwards these to
    /// google-benchmark).
    std::vector<std::string> passthrough;
    /// Simulated seconds covered by the run; benches set this before
    /// footer() so the manifest can record it.
    double sim_seconds = 0.0;
    /// The bench's observability context: tracing is wired here by
    /// parse_options (--trace), metrics and manifest accumulate here.
    obs::RunContext ctx;

    [[nodiscard]] std::uint64_t seed_or(std::uint64_t fallback) const noexcept {
        return seed_set ? seed : fallback;
    }
};

/// The process-wide options instance parse_options() fills.
inline Options& opts() {
    static Options options;
    return options;
}

struct OptionsSpec {
    /// Additional flag names this bench accepts (values land in
    /// Options::extra; a flag without a value stores "1").
    std::vector<std::string> extra;
    /// Forward unrecognised tokens via Options::passthrough instead of
    /// failing (for binaries wrapping another flag-parsing library).
    bool allow_unknown = false;
    /// Manifest identity; defaults to argv[0]'s basename.
    std::string tool;
    std::string description;
};

namespace detail {

[[noreturn]] inline void usage(const char* argv0, const OptionsSpec& spec) {
    std::fprintf(stderr,
                 "usage: %s [--jobs N] [--seed S] [--json] [--quiet]"
                 " [--trace FILE] [--out FILE] [--sample-every SEC] [--profile]"
                 " [--monitor]",
                 argv0);
    for (const std::string& name : spec.extra) {
        std::fprintf(stderr, " [--%s V]", name.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
}

inline std::string basename_of(const char* argv0) {
    const std::string path = argv0 != nullptr ? argv0 : "bench";
    const auto slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

} // namespace detail

/// Parses the unified bench command line into opts(). Call once, first
/// thing in main(). Exits with a usage message on malformed input.
inline Options& parse_options(int argc, char** argv, const OptionsSpec& spec = {}) {
    Options& o = opts();
    const auto is_extra = [&spec](const std::string& name) {
        for (const std::string& e : spec.extra) {
            if (e == name) {
                return true;
            }
        }
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (spec.allow_unknown) {
                o.passthrough.push_back(std::move(arg));
                continue;
            }
            detail::usage(argv[0], spec);
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        if (const auto eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        const bool is_bool = name == "json" || name == "quiet" ||
                             name == "profile" || name == "monitor";
        const bool is_known = is_bool || name == "jobs" || name == "seed" ||
                              name == "trace" || name == "out" ||
                              name == "sample-every" || is_extra(name);
        if (!is_known) {
            if (spec.allow_unknown) {
                o.passthrough.push_back(std::move(arg));
                continue;
            }
            detail::usage(argv[0], spec);
        }
        if (!has_value && !is_bool && i + 1 < argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0) {
            value = argv[++i];
            has_value = true;
        }
        if (name == "json") {
            o.json = true;
        } else if (name == "quiet") {
            o.quiet = true;
        } else if (name == "profile") {
            o.profile = true;
        } else if (name == "monitor") {
            o.monitor = true;
        } else if (name == "sample-every") {
            char* end = nullptr;
            const double sec = std::strtod(value.c_str(), &end);
            if (!has_value || end == value.c_str() || *end != '\0' ||
                !(sec > 0.0) || std::isinf(sec)) {
                std::fprintf(stderr,
                             "error: --sample-every must be a positive number of"
                             " seconds, got '%s'\n",
                             value.c_str());
                std::exit(2);
            }
            o.sample_every = sec;
        } else if (name == "jobs") {
            if (!has_value) {
                // Bare --jobs: auto-detect, same as the default.
                o.jobs = parallel::hardware_jobs();
                continue;
            }
            try {
                // 0 = auto-detect the hardware concurrency.
                o.jobs = cli::flag_jobs({{"jobs", value}}, parallel::hardware_jobs());
            } catch (const std::invalid_argument& e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                std::exit(2);
            }
        } else if (name == "seed") {
            char* end = nullptr;
            const unsigned long long s = std::strtoull(value.c_str(), &end, 10);
            if (!has_value || end == value.c_str() || *end != '\0') {
                std::fprintf(stderr, "error: --seed must be an integer, got '%s'\n",
                             value.c_str());
                std::exit(2);
            }
            o.seed = s;
            o.seed_set = true;
        } else if (name == "trace") {
            if (!has_value || value.empty()) {
                std::fprintf(stderr, "error: --trace requires a file path\n");
                std::exit(2);
            }
            o.trace = value;
        } else if (name == "out") {
            if (!has_value || value.empty()) {
                std::fprintf(stderr, "error: --out requires a file path\n");
                std::exit(2);
            }
            o.out = value;
        } else {
            o.extra[name] = has_value ? value : "1";
        }
    }
    if (!o.trace.empty()) {
        o.ctx.trace_to_file(o.trace);
    }
    if (o.profile) {
        o.ctx.enable_profiling();
    }
    obs::Manifest& m = o.ctx.manifest();
    m.tool = !spec.tool.empty() ? spec.tool : detail::basename_of(argv[0]);
    m.description = spec.description;
    m.jobs = o.jobs;
    if (o.seed_set) {
        m.seeds.push_back(o.seed);
    }
    return o;
}

/// Convenience overload for benches with no extra flags: just a manifest
/// description.
inline Options& parse_options(int argc, char** argv, const std::string& description) {
    OptionsSpec spec;
    spec.description = description;
    return parse_options(argc, argv, spec);
}

/// Stream for human-facing output: stdout normally, stderr under --json
/// (stdout then carries machine rows only), null under --quiet.
inline FILE* chatter() {
    const Options& o = opts();
    if (o.quiet) {
        return nullptr;
    }
    return o.json ? stderr : stdout;
}

inline void header(const std::string& figure, const std::string& description) {
    if (FILE* f = chatter()) {
        std::fprintf(f, "==============================================================\n");
        std::fprintf(f, "%s — %s\n", figure.c_str(), description.c_str());
        std::fprintf(f, "==============================================================\n");
    }
}

inline void section(const std::string& name) {
    if (FILE* f = chatter()) {
        std::fprintf(f, "\n-- %s --\n", name.c_str());
    }
}

inline void check(bool ok, const std::string& what) {
    if (FILE* f = chatter()) {
        std::fprintf(f, "SHAPE-CHECK %-4s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    }
    if (!ok) {
        ++g_failed_checks;
    }
}

/// Render a number that may be +infinity (diverging hitting time).
inline std::string fmt_time(double seconds) {
    if (std::isinf(seconds)) {
        return ">1e15 (divergent)";
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", seconds);
    return buf;
}

namespace detail {

/// Scans `text` from `pos` (which must point at the opening quote of a
/// JSON string) past the closing quote, honouring backslash escapes.
/// Returns npos on malformed input.
inline std::size_t skip_json_string(const std::string& text, std::size_t pos) {
    for (++pos; pos < text.size(); ++pos) {
        if (text[pos] == '\\') {
            ++pos;
        } else if (text[pos] == '"') {
            return pos + 1;
        }
    }
    return std::string::npos;
}

/// Scans one JSON value starting at `pos` (object, array, string, number,
/// or literal) and returns the index one past its end. Returns npos on
/// malformed input. Good enough for files this repo writes itself.
inline std::size_t skip_json_value(const std::string& text, std::size_t pos) {
    if (pos >= text.size()) {
        return std::string::npos;
    }
    if (text[pos] == '"') {
        return skip_json_string(text, pos);
    }
    if (text[pos] == '{' || text[pos] == '[') {
        int depth = 0;
        for (; pos < text.size(); ++pos) {
            const char c = text[pos];
            if (c == '"') {
                pos = skip_json_string(text, pos);
                if (pos == std::string::npos) {
                    return std::string::npos;
                }
                --pos; // loop increment lands on the next char
            } else if (c == '{' || c == '[') {
                ++depth;
            } else if (c == '}' || c == ']') {
                if (--depth == 0) {
                    return pos + 1;
                }
            }
        }
        return std::string::npos;
    }
    // Number / true / false / null: runs until a delimiter.
    while (pos < text.size() && text[pos] != ',' && text[pos] != '}' &&
           text[pos] != ']' && !std::isspace(static_cast<unsigned char>(text[pos]))) {
        ++pos;
    }
    return pos;
}

/// Parses the top-level `"key": value` pairs of a JSON object into raw
/// (key, value-text) pairs, preserving order. Returns false on anything
/// that does not parse as a flat object of sections.
inline bool read_json_sections(
    const std::string& text,
    std::vector<std::pair<std::string, std::string>>& sections) {
    const auto ws = [&text](std::size_t p) {
        while (p < text.size() && std::isspace(static_cast<unsigned char>(text[p]))) {
            ++p;
        }
        return p;
    };
    std::size_t pos = ws(0);
    if (pos >= text.size() || text[pos] != '{') {
        return false;
    }
    pos = ws(pos + 1);
    if (pos < text.size() && text[pos] == '}') {
        return true; // empty object
    }
    while (pos < text.size()) {
        if (text[pos] != '"') {
            return false;
        }
        const std::size_t key_end = skip_json_string(text, pos);
        if (key_end == std::string::npos) {
            return false;
        }
        std::string key = text.substr(pos + 1, key_end - pos - 2);
        pos = ws(key_end);
        if (pos >= text.size() || text[pos] != ':') {
            return false;
        }
        pos = ws(pos + 1);
        const std::size_t value_end = skip_json_value(text, pos);
        if (value_end == std::string::npos) {
            return false;
        }
        sections.emplace_back(std::move(key), text.substr(pos, value_end - pos));
        pos = ws(value_end);
        if (pos < text.size() && text[pos] == ',') {
            pos = ws(pos + 1);
            continue;
        }
        if (pos < text.size() && text[pos] == '}') {
            return true;
        }
        return false;
    }
    return false;
}

} // namespace detail

/// Read-modify-write one top-level section of a shared JSON report file
/// (BENCH_sweep.json): the file is `{ "section": {...}, ... }`, each
/// bench owns one key, and writing a section preserves every other
/// bench's data. `object_text` must be a complete JSON value (normally
/// an object). Unparseable files — including the pre-section flat format
/// whose first key was "bench" — are discarded and rebuilt with just the
/// new section.
inline void write_json_section(const std::string& path, const std::string& key,
                               const std::string& object_text) {
    std::vector<std::pair<std::string, std::string>> sections;
    if (std::ifstream in{path}; in) {
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string text = buf.str();
        if (!detail::read_json_sections(text, sections) ||
            (!sections.empty() && sections.front().first == "bench")) {
            sections.clear(); // malformed or legacy flat layout: start over
        }
    }
    bool replaced = false;
    for (auto& [name, value] : sections) {
        if (name == key) {
            value = object_text;
            replaced = true;
            break;
        }
    }
    if (!replaced) {
        sections.emplace_back(key, object_text);
    }
    std::ofstream out{path};
    out << "{\n";
    for (std::size_t i = 0; i < sections.size(); ++i) {
        out << "  \"" << sections[i].first << "\": " << sections[i].second
            << (i + 1 < sections.size() ? ",\n" : "\n");
    }
    out << "}\n";
}

/// footer() without the shape-check summary line — for the examples,
/// which have no checks but still honour --trace/--out.
inline int footer_quiet() {
    Options& o = opts();
    o.ctx.manifest().failed_checks = g_failed_checks;
    if (!o.out.empty()) {
        o.ctx.write_manifest(o.out, o.sim_seconds);
    } else if (!o.trace.empty() || o.profile) {
        // Still flush + hash the trace (and fold the profile into the
        // manifest) so --trace/--profile alone leave a complete record.
        o.ctx.finish(o.sim_seconds);
    }
    if (o.profile) {
        if (FILE* f = chatter()) {
            const auto& prof = o.ctx.manifest().profile;
            std::fprintf(f, "\n-- profile (wall clock) --\n%s",
                         prof.has_value() ? prof->format().c_str()
                                          : "(no scopes recorded)\n");
        }
    }
    return 0; // benches report, they do not abort the bench sweep
}

inline int footer() {
    if (FILE* f = chatter()) {
        std::fprintf(f, "\n%s (%d failed shape checks)\n",
                     g_failed_checks == 0 ? "ALL SHAPE CHECKS PASSED"
                                          : "SHAPE CHECKS FAILED",
                     g_failed_checks);
    }
    return footer_quiet();
}

} // namespace routesync::bench
