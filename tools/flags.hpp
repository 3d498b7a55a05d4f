// The routesync CLI's command-level flag rules, separated from the
// binary so they are unit-testable: one flag table per command and
// action, next to each other, and the `sweep` grid. The table type and
// the parser live in src/cli/flags.hpp.
#pragma once

#include <cmath>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/flags.hpp"

namespace routesync::cli {

/// `routesync pm`: the model, the run, its outputs and the monitor.
inline constexpr FlagSpec kPmTable[] = {
    integer("n", "N"), real("tp", "SEC"), real("tr", "SEC"), real("tc", "SEC"),
    seed(), real("max-time", "SEC"), boolean("sync-start"),
    boolean("reset-at-expiry"), boolean("half-period"), real("delta", "SEC"),
    boolean("stop-on-sync"), integer("stop-on-breakup", "K"), boolean("rounds"),
    boolean("transmits"), integer("stride", "K", 1), boolean("monitor"),
    real("sync-threshold", "R"), real("sync-hysteresis", "H"),
    text("trace", "FILE"), text("out", "MANIFEST"), real("sample-every", "SEC")};

/// `routesync chain`: the chain parameters.
inline constexpr FlagSpec kChainTable[] = {
    integer("n", "N"), real("tp", "SEC"), real("tr", "SEC"), real("tc", "SEC"),
    real("f2", "ROUNDS")};

/// `routesync sweep`: the chain parameters, the Tr grid (in units of Tc)
/// and the optional simulation column.
inline constexpr FlagSpec kSweepTable[] = {
    integer("n", "N"), real("tp", "SEC"), real("tr", "SEC"), real("tc", "SEC"),
    real("f2", "ROUNDS"), real("from", "X"), real("to", "X"), real("step", "X"),
    integer("jobs", "N", 0, kUnbounded), integer("sim-trials", "T", 0),
    real("sim-max-time", "SEC"), seed(), text("trace", "FILE"),
    text("out", "MANIFEST")};

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
inline constexpr FlagSpec kThresholdTable[] = {
    integer("n", "N"), real("tp", "SEC"), real("tr", "SEC"), real("tc", "SEC"),
    real("f2", "ROUNDS"), integer("n-max", "N")};

/// `routesync f2`: the model parameters and the estimate's repetitions.
/// It simulates f(2) rather than taking it, so --f2 is not among them.
inline constexpr FlagSpec kF2Table[] = {
    integer("n", "N"), real("tp", "SEC"), real("tr", "SEC"), real("tc", "SEC"),
    integer("reps", "K"), seed(), integer("jobs", "N", 0, kUnbounded)};

/// `routesync trace summary`: the trace and the phase histogram.
inline constexpr FlagSpec kTraceSummaryTable[] = {
    text("in", "FILE"), real("round", "SEC"), integer("bins", "N")};

/// `routesync trace filter`: the trace, the selection and the output.
inline constexpr FlagSpec kTraceFilterTable[] = {
    text("in", "FILE"), text("type", "a,b"), integer("node", "N"),
    real("from", "T"), real("to", "T"), text("out", "FILE")};

/// `routesync trace export-chrome`: the trace and the output.
inline constexpr FlagSpec kTraceExportChromeTable[] = {text("in", "FILE"),
                                                       text("out", "FILE")};

/// `routesync trace replay-check`: the trace, the grouping tolerance and
/// the series to compare with or print.
inline constexpr FlagSpec kTraceReplayCheckTable[] = {
    text("in", "FILE"), real("tolerance", "SEC"), text("expect", "FILE"),
    boolean("print")};

/// `routesync analyze coupling`: the trace, the phase modulus and the
/// exports.
inline constexpr FlagSpec kAnalyzeCouplingTable[] = {
    text("in", "FILE"), real("round", "SEC"), text("dot", "FILE"),
    text("json", "FILE"), boolean("print")};

} // namespace routesync::cli
