// The routesync CLI's command-level flag rules, separated from the
// binary so they are unit-testable: the known-flag list of each command,
// next to each other, and the `sweep` grid. The flag readers themselves
// live in src/cli/flags.hpp.
#pragma once

#include <cmath>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cli/flags.hpp"

namespace routesync::cli {

// The flags each `routesync` command reads; the command rejects any
// other (reject_unknown_flags).

/// `routesync pm`: the model, the run, its outputs and the monitor.
inline constexpr std::string_view kPmFlags[] = {
    "n", "tp", "tr", "tc", "seed", "max-time", "sync-start", "reset-at-expiry",
    "half-period", "delta", "stop-on-sync", "stop-on-breakup", "rounds",
    "transmits", "stride", "monitor", "sync-threshold", "sync-hysteresis",
    "trace", "out", "sample-every"};

/// `routesync chain`: the chain parameters (--n --tp --tr --tc --f2).
inline constexpr std::string_view kChainFlags[] = {"n", "tp", "tr", "tc", "f2"};

/// `routesync sweep`: the chain parameters, the Tr grid and the optional
/// simulation column.
inline constexpr std::string_view kSweepFlags[] = {
    "n",    "tp",   "tr",         "tc",           "f2",   "from",  "to",
    "step", "jobs", "sim-trials", "sim-max-time", "seed", "trace", "out"};

/// Most points `routesync sweep` puts on its Tr/Tc grid. A --step too
/// small for the range, or too small to move --from at all, is an
/// error, not a loop that appends until memory runs out.
inline constexpr std::size_t kMaxSweepPoints = 100000;

/// `routesync sweep`'s Tr/Tc grid: --from, then one --step at a time
/// while the value stays <= --to (1e-12 slack for the accumulated
/// rounding). Throws std::invalid_argument for a step that is not a
/// positive finite number and for more than kMaxSweepPoints points.
inline std::vector<double> sweep_grid(double from, double to, double step) {
    if (!(step > 0.0) || !std::isfinite(step)) {
        std::ostringstream what;
        what << "--step must be a positive number, got " << step;
        throw std::invalid_argument{what.str()};
    }
    std::vector<double> grid;
    for (double x = from; x <= to + 1e-12; x += step) {
        if (grid.size() == kMaxSweepPoints) {
            throw std::invalid_argument{
                "--from/--to/--step span more than " +
                std::to_string(kMaxSweepPoints) + " grid points"};
        }
        grid.push_back(x);
    }
    return grid;
}

/// `routesync threshold`: the chain parameters and the N search bound.
inline constexpr std::string_view kThresholdFlags[] = {"n",  "tp", "tr",
                                                       "tc", "f2", "n-max"};

/// `routesync f2`: the model parameters and the estimate's repetitions.
/// It simulates f(2) rather than taking it, so --f2 is not among them.
inline constexpr std::string_view kF2Flags[] = {"n",    "tp",   "tr", "tc",
                                                "reps", "seed", "jobs"};

/// `routesync trace summary`: the trace and the phase histogram.
inline constexpr std::string_view kTraceSummaryFlags[] = {"in", "round", "bins"};

/// `routesync trace filter`: the trace, the selection and the output.
inline constexpr std::string_view kTraceFilterFlags[] = {"in",   "type", "node",
                                                         "from", "to",   "out"};

/// `routesync trace export-chrome`: the trace and the output.
inline constexpr std::string_view kTraceExportChromeFlags[] = {"in", "out"};

/// `routesync trace replay-check`: the trace, the grouping tolerance and
/// the series to compare with or print.
inline constexpr std::string_view kTraceReplayCheckFlags[] = {"in", "tolerance",
                                                              "expect", "print"};

/// `routesync analyze coupling`: the trace, the phase modulus and the
/// exports.
inline constexpr std::string_view kAnalyzeCouplingFlags[] = {"in",   "round", "dot",
                                                             "json", "print"};

} // namespace routesync::cli
