// Shared options + output helpers for the figure-reproduction benches.
//
// Every bench prints:
//   * a header naming the paper figure it regenerates,
//   * the same series/rows the paper plots (machine-greppable columns),
//   * SHAPE-CHECK lines asserting the qualitative result the paper reports
//     (who wins, the period, the transition) — PASS/FAIL.
//
// Every bench binary and example parses its command line once, with
// parse_options(): the five flags of kBenchTable below plus the bench's
// own OptionsSpec::extra table, through the one parser behind the CLI
// (cli::parse, src/cli/flags.hpp). Every binary accepts kBenchTable:
//
//   --jobs N      worker threads for parallel sweeps; 0 auto-detects the
//                 hardware concurrency (also the default)
//   --seed S      override the bench's base seed
//   --quiet       silence chatter(): headers, tables, summaries and the
//                 examples' reports (checks still counted)
//   --out FILE    write a run manifest (manifest.json) on exit
//   --profile     wall-clock self-profiler: per-label count/total/max in
//                 the manifest's "profile" section + a table on exit
//
// The three observability flags are FlagSpec constants a binary lists in
// its extra table only when it wires them (fig01-fig04, quickstart and
// routing_storm; see docs/OBSERVABILITY.md), so a binary that would
// ignore one rejects it instead:
//
//   --trace FILE  (kTraceFlag) write a JSONL trace of the run's events
//   --sample-every SEC  (kSampleEveryFlag) run the ResourceSampler at
//                 this sim-time cadence; the bench forwards
//                 opts().sample_every to its config
//   --monitor     (kMonitorFlag) attach the synchronization monitor
//
// A flag no table declares, a value given to a boolean, a missing value
// and a malformed one are usage errors (exit 2). The bench reads its
// other extra flags from Options::args. The returned Options owns the
// bench's obs::RunContext — pass &opts().ctx to scenario builders or
// ExperimentConfig::obs to trace, and footer() seals the manifest.
//
// Output discipline: with no flags, stdout is byte-identical to the
// pre-options benches (figures are diffed across runs and --jobs values).
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
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
    bool quiet = false;
    /// JSONL trace path ("" = tracing off; always "" unless the binary
    /// lists kTraceFlag).
    std::string trace;
    std::string out; ///< manifest path ("" = no manifest)
    /// ResourceSampler cadence in sim seconds (0 = sampling off). Benches
    /// that list kSampleEveryFlag forward this to
    /// ExperimentConfig::sample_every / scenario configs.
    double sample_every = 0.0;
    bool profile = false; ///< wall-clock self-profiler on
    /// Synchronization observatory (obs/sync_monitor.hpp): benches that
    /// list kMonitorFlag forward this to ExperimentConfig::monitor. Off by
    /// default with nil overhead.
    bool monitor = false;
    /// Every parsed flag; benches read their OptionsSpec::extra flags here.
    cli::Args args;
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

/// The flags every bench and example accepts.
inline constexpr cli::FlagSpec kBenchTable[] = {
    cli::integer("jobs", "N", 0, cli::kUnbounded), cli::seed(), cli::boolean("quiet"),
    cli::text("out", "FILE", /*non_empty=*/true), cli::boolean("profile")};

/// The observability flags, each listed in OptionsSpec::extra by the
/// binaries that wire it; parse_options reads one only when it is listed.
inline constexpr cli::FlagSpec kTraceFlag = cli::text("trace", "FILE", /*non_empty=*/true);
inline constexpr cli::FlagSpec kSampleEveryFlag = cli::positive("sample-every", "SEC");
inline constexpr cli::FlagSpec kMonitorFlag = cli::boolean("monitor");

struct OptionsSpec {
    /// The bench's own flags, read from Options::args, and the
    /// observability flags it wires.
    cli::Table extra;
    /// Manifest identity; defaults to argv[0]'s basename.
    std::string tool;
    std::string description;
};

/// Parses the unified bench command line into opts(). Call once, first
/// thing in main(). Exits 2 with a usage message on malformed input.
inline Options& parse_options(int argc, char** argv, const OptionsSpec& spec = {}) {
    Options& o = opts();
    try {
        o.args = cli::parse(std::vector<std::string>(argv + 1, argv + argc),
                            {kBenchTable, spec.extra});
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: %s\nusage: %s\n  %s\n", e.what(), argv[0],
                     cli::usage({kBenchTable, spec.extra}, 2).c_str());
        std::exit(2);
    }
    const cli::Args& a = o.args;
    const auto listed = [&spec](const cli::FlagSpec& flag) {
        return std::ranges::any_of(
            spec.extra, [&flag](const cli::FlagSpec& f) { return f.name == flag.name; });
    };
    // 0 = auto-detect the hardware concurrency.
    o.jobs = a.integer<std::size_t>("jobs", 0);
    o.jobs = o.jobs == 0 ? parallel::hardware_jobs() : o.jobs;
    o.seed_set = a.has("seed");
    o.seed = a.seed("seed", 0);
    o.quiet = a.flag("quiet");
    o.trace = listed(kTraceFlag) ? a.text("trace") : "";
    o.out = a.text("out");
    o.sample_every = listed(kSampleEveryFlag) ? a.real("sample-every", 0.0) : 0.0;
    o.profile = a.flag("profile");
    o.monitor = listed(kMonitorFlag) && a.flag("monitor");
    if (!o.trace.empty()) {
        o.ctx.trace_to_file(o.trace);
    }
    if (o.profile) {
        o.ctx.enable_profiling();
    }
    obs::Manifest& m = o.ctx.manifest();
    if (!spec.tool.empty()) {
        m.tool = spec.tool;
    } else {
        const std::string path = argv[0] != nullptr ? argv[0] : "bench";
        m.tool = path.substr(path.find_last_of('/') + 1);
    }
    m.description = spec.description;
    m.jobs = o.jobs;
    if (o.seed_set) {
        m.seeds.push_back(o.seed);
    }
    return o;
}

/// Convenience overload: a manifest description and, optionally, the
/// extra flags (the observability flags the binary wires).
inline Options& parse_options(int argc, char** argv, const std::string& description,
                              cli::Table extra = {}) {
    OptionsSpec spec;
    spec.extra = extra;
    spec.description = description;
    return parse_options(argc, argv, spec);
}

/// Stream for human-facing output: stdout, or null under --quiet.
inline FILE* chatter() { return opts().quiet ? nullptr : stdout; }

/// printf onto chatter(): how the examples print their report, so
/// --quiet silences it.
[[gnu::format(printf, 1, 2)]] inline void print(const char* format, ...) {
    if (FILE* f = chatter()) {
        std::va_list args;
        va_start(args, format);
        std::vfprintf(f, format, args);
        va_end(args);
    }
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
/// which have no checks but still honour --out (and --trace where wired).
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
