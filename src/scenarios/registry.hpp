// One table of runnable scenarios, keyed by name.
//
// Before this registry every testbed was its own binary with its own
// dispatch (bench/fig*.cpp, examples/*.cpp), so "what can I run?" had no
// single answer. Entries come in two kinds:
//
//   * builtin  — a std::function runner linked into this library, with
//     its flag tables (src/cli/flags.hpp). run() parses the command line
//     against those tables and passes the runner the Args; the runner
//     returns a process exit code.
//   * external — a relative path to a standalone binary (the figures and
//     examples keep their own main()s). run() resolves the path against
//     --bin-dir and executes it without a shell, forwarding the rest of
//     the command line verbatim.
//
// `routesync scenario list` prints the table, with each builtin's flags;
// `routesync scenario run <name> [--flags]` dispatches through it.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cli/flags.hpp"

namespace routesync::scenarios {

/// `nearnet`: the testbed, the probe and the horizon.
inline constexpr cli::FlagSpec kNearnetTable[] = {
    cli::integer("core-routers", "K"), cli::integer("filler-routes", "N"),
    cli::real("period", "SEC"), cli::real("jitter", "SEC"),
    cli::integer("pings", "N"), cli::real("max-time", "SEC"), cli::seed(),
    cli::boolean("non-blocking"), cli::boolean("incremental")};

/// `audiocast`: the testbed, the cross traffic and the horizon.
inline constexpr cli::FlagSpec kAudiocastTable[] = {
    cli::integer("core-routers", "K"), cli::real("jitter", "SEC"),
    cli::real("bg-pps", "RATE"), cli::real("max-time", "SEC"), cli::seed()};

/// `shared_lan`: the scenario config and the manifest, read by `scenario
/// run shared_lan` and `scenario sweep shared_lan` alike.
inline constexpr cli::FlagSpec kSharedLanTable[] = {
    cli::choice("queue", "red|droptail|drop-tail|fifo"), cli::integer("n", "N"),
    cli::real("tp", "SEC"), cli::real("tr", "SEC"), cli::real("tc", "SEC"),
    cli::integer("queue-cap", "PKTS", 1), cli::real("red-min", "PKTS"),
    cli::real("red-max", "PKTS"), cli::real("red-maxp", "P"),
    cli::real("red-weight", "W"), cli::integer("bg-burst", "PKTS"),
    cli::real("bg-period", "SEC"), cli::real("max-time", "SEC"), cli::seed(),
    cli::choice("dispatch", "fast|virtual"), cli::text("out", "MANIFEST")};

/// `scenario run shared_lan`'s synchronization monitor: the run prints
/// and records what it measures; the sweep reports none of it.
inline constexpr cli::FlagSpec kSharedLanMonitorTable[] = {
    cli::boolean("monitor"), cli::real("sync-threshold", "R"),
    cli::real("sync-hysteresis", "H")};

/// `scenario sweep shared_lan`: the grid axes, the trials per cell and
/// the workers, parsed with the kSharedLanTable flags.
inline constexpr cli::FlagSpec kSweepAxesTable[] = {
    cli::text("buffers", "LO..HI|a,b,c"), cli::text("loads", "a,b,c"),
    cli::integer("trials", "K", 1), cli::integer("jobs", "N", 0, cli::kUnbounded)};

struct ScenarioEntry {
    std::string name;
    std::string summary;
    /// The tables of every flag the builtin reads (from those above);
    /// empty for external entries.
    std::vector<cli::Table> flags;
    /// In-process runner; null for external entries.
    std::function<int(const cli::Args&)> run;
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

    /// Dispatches to the named entry with the command-line `tokens` that
    /// follow its name. A builtin parses them against its tables (plus
    /// --bin-dir, which it ignores) and runs in-process. An external
    /// entry runs "<bin-dir>/<binary>" (--bin-dir DIR from `tokens`,
    /// default `bin_dir`) with every other token, verbatim, and returns
    /// its exit status. Throws std::invalid_argument for an unknown name
    /// or a flag the builtin rejects.
    int run(const std::string& name, std::span<const std::string> tokens,
            const std::string& bin_dir = ".") const;

private:
    std::vector<ScenarioEntry> entries_;
};

/// Fills the registry with the built-in table: the in-process scenarios
/// (nearnet, audiocast, shared_lan) plus external entries for every
/// figure and example binary. Safe to call more than once.
void register_builtin_scenarios();

/// The `scenario sweep shared_lan` runner: a (buffer x load x trial)
/// grid of packet-level shared-LAN simulations over one work-stealing
/// pool (see scenario_sweep.hpp). `args` is parsed against
/// kSharedLanTable and kSweepAxesTable. Stdout is byte-identical for
/// every --jobs value; --out writes a manifest whose metrics are every
/// cell's counters summed in submission order.
int run_shared_lan_sweep(const cli::Args& args);

} // namespace routesync::scenarios
