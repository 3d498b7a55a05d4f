// One table of runnable scenarios, keyed by name.
//
// Before this registry every testbed was its own binary with its own
// dispatch (bench/fig*.cpp, examples/*.cpp), so "what can I run?" had no
// single answer. Entries come in two kinds:
//
//   * builtin  — a std::function runner linked into this library. It
//     receives the parsed --flag map (the same shape as cli::Flags; the
//     registry deliberately takes std::map<std::string, std::string>
//     rather than including tools/flags.hpp, so the library keeps zero
//     dependency on the CLI layer) and returns a process exit code.
//   * external — a relative path to a standalone binary (the figures and
//     examples keep their own main()s). run() resolves the path against
//     the --bin-dir flag and executes it, forwarding the remaining
//     flags verbatim.
//
// `routesync scenario list` prints the table; `routesync scenario run
// <name> [--flags]` dispatches through it.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace routesync::scenarios {

/// Parsed "--name value" pairs, exactly the shape cli::parse_flags
/// produces (boolean flags carry the value "1").
using ScenarioFlags = std::map<std::string, std::string>;

// The flags each builtin runner reads; `routesync scenario run|sweep`
// rejects any other (cli::reject_unknown_flags). External entries have
// no list: their flags pass through to the binary.

/// `nearnet`: the testbed, the probe and the horizon.
inline constexpr std::string_view kNearnetFlags[] = {
    "core-routers", "filler-routes", "period", "jitter", "pings",
    "max-time", "seed", "non-blocking", "incremental"};

/// `audiocast`: the testbed, the cross traffic and the horizon.
inline constexpr std::string_view kAudiocastFlags[] = {
    "core-routers", "jitter", "bg-pps", "max-time", "seed"};

/// `shared_lan`: the scenario config, the trials and the manifest.
inline constexpr std::string_view kSharedLanFlags[] = {
    "queue", "n", "tp", "tr", "tc", "queue-cap", "red-min", "red-max",
    "red-maxp", "red-weight", "bg-burst", "bg-period", "max-time", "seed",
    "trials", "jobs", "dispatch", "monitor", "sync-threshold",
    "sync-hysteresis", "out"};

/// `scenario sweep shared_lan`: the shared_lan flags plus the grid axes.
inline constexpr std::string_view kSharedLanSweepFlags[] = {
    "queue", "n", "tp", "tr", "tc", "queue-cap", "red-min", "red-max",
    "red-maxp", "red-weight", "bg-burst", "bg-period", "max-time", "seed",
    "trials", "jobs", "dispatch", "monitor", "sync-threshold",
    "sync-hysteresis", "out", "buffers", "loads"};

struct ScenarioEntry {
    std::string name;
    std::string summary;
    /// One-line flag cheat-sheet shown by `scenario list` (builtins only).
    std::string flags_help;
    /// Every flag the builtin reads (one of the k*Flags lists above);
    /// empty for external entries.
    std::span<const std::string_view> flags;
    /// In-process runner; null for external entries.
    std::function<int(const ScenarioFlags&)> run;
    /// Binary path relative to --bin-dir; empty for builtins.
    std::string binary;

    [[nodiscard]] bool is_builtin() const noexcept { return run != nullptr; }
};

class ScenarioRegistry {
public:
    /// The process-wide table. Starts empty; call
    /// register_builtin_scenarios() (idempotent) to populate it.
    static ScenarioRegistry& instance();

    /// Throws std::invalid_argument on a duplicate or empty name, or an
    /// entry that is neither builtin nor external.
    void add(ScenarioEntry entry);

    [[nodiscard]] const ScenarioEntry* find(const std::string& name) const;

    /// Registration order (builtins first, then figures, then examples).
    [[nodiscard]] const std::vector<ScenarioEntry>& entries() const noexcept {
        return entries_;
    }

    /// Dispatches to the named entry. Builtins run in-process; external
    /// entries exec "<bin-dir>/<binary>" (bin-dir from `flags`, default
    /// ".") with the remaining flags forwarded. Throws
    /// std::invalid_argument for an unknown name.
    int run(const std::string& name, const ScenarioFlags& flags) const;

private:
    std::vector<ScenarioEntry> entries_;
};

/// Fills the registry with the built-in table: the in-process scenarios
/// (nearnet, audiocast, shared_lan) plus external entries for every
/// figure and example binary. Safe to call more than once.
void register_builtin_scenarios();

/// The `scenario sweep shared_lan` runner: a (buffer x load x trial)
/// grid of packet-level shared-LAN simulations over one work-stealing
/// pool (see scenario_sweep.hpp). Flags: the shared_lan set plus
/// --buffers LO..HI|a,b,c  --loads a,b,c  --trials K  --jobs N
/// [--out MANIFEST]. Stdout is byte-identical for every --jobs value.
int run_shared_lan_sweep(const ScenarioFlags& flags);

} // namespace routesync::scenarios
