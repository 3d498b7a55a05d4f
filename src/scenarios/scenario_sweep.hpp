// Packet-level scenario sweeps: one work-stealing pool for a whole
// (buffer x load x trial) grid of shared-LAN experiments.
//
// The PM sweeps (parallel::SweepScheduler) parallelize the paper's
// analytic model; this runner gives the element-graph workload the same
// treatment. Every cell of the grid is one full packet-level simulation
// (run_shared_lan_scenario), so a RED-vs-drop-tail buffer scan that took
// a serial afternoon fans out over every core — and near the sync phase
// transition, where one cell runs to max_time while its neighbours
// finish in seconds, parallel::TaskPool's stealing shares the long tail
// across the machine.
//
// Determinism contract (the same one every parallel path in this repo
// honors):
//   * a cell's config is a pure function of its submission index
//     (buffer-major, then load, then trial);
//   * each cell runs its own Engine AND its own Tracer/HashingSink, and
//     the result lands in a slot addressed by the submission index;
//   * therefore --jobs N output is byte-identical to --jobs 1, and each
//     cell's 64-bit trace digest is the per-cell witness: any
//     cross-thread contamination would show up as a digest mismatch.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "scenarios/shared_lan_scenario.hpp"

namespace routesync::scenarios {

struct ScenarioSweepConfig {
    /// Template for every cell; the grid overrides queue_packets (from
    /// `buffers`), bg_burst (scaled by `loads`), and seed (from `trials`).
    SharedLanScenarioConfig base;
    /// Station-queue capacities to scan (the paper's buffer knob).
    std::vector<std::size_t> buffers;
    /// Background-load multipliers: cell bg_burst =
    /// round(base.bg_burst * load), minimum 0.
    std::vector<double> loads;
    /// Trials per grid point; trial t runs with seed base.seed + t.
    int trials = 1;
    /// Worker threads. 0 = hardware concurrency; 1 = inline reference.
    std::size_t jobs = 1;
    /// Trace every cell through a HashingSink and record the digest
    /// (cheap: no I/O, 8 bytes of state). Off = untraced cells,
    /// digest 0.
    bool hash_traces = true;
};

/// One grid cell, in submission order.
struct ScenarioSweepCell {
    std::size_t buffer = 0;       ///< queue_packets this cell ran with
    double load = 1.0;            ///< bg multiplier this cell ran with
    int trial = 0;
    std::uint64_t seed = 0;       ///< the seed the scenario actually used
    SharedLanScenarioResult result;
    std::uint64_t trace_digest = 0; ///< HashingSink digest (0 if untraced)
    std::uint64_t trace_events = 0; ///< events folded into the digest
};

struct ScenarioSweepResult {
    std::vector<ScenarioSweepCell> cells; ///< buffer-major, load, trial
    std::size_t jobs = 1;    ///< effective worker count
    std::size_t steals = 0;  ///< TaskPool steals (0 under jobs = 1)
    /// FNV-1a fold of every cell's digest in submission order — one
    /// number that witnesses the whole sweep's event streams.
    std::uint64_t combined_digest = 0;
};

/// Runs the full grid. Throws std::invalid_argument on an empty grid
/// axis or trials < 1.
ScenarioSweepResult run_scenario_sweep(const ScenarioSweepConfig& config);

/// Parses a --buffers spec: either "LO..HI" (a doubling ladder: LO,
/// 2*LO, ... capped at HI, HI always included) or a comma list "8,16,24".
/// Each size is an integer in [1, INT_MAX], as --queue-cap's. Throws
/// std::invalid_argument on junk, a size out of that range, or LO > HI.
std::vector<std::size_t> parse_buffer_list(const std::string& spec);

/// Parses a --loads comma list "0.5,1.0,1.5" of finite non-negative
/// multipliers. Throws std::invalid_argument on junk, negatives, nan and
/// inf.
std::vector<double> parse_load_list(const std::string& spec);

} // namespace routesync::scenarios
