// Streaming synchronization analytics: the observatory of the repo.
//
// A SyncMonitor watches the same two callback streams the ClusterTracker
// does — timer re-arms and transmissions — and computes, in O(1)
// amortized work per event:
//
//   * the Kuramoto-style phase-coherence order parameter
//         r(t) = | sum_j e^{i*theta_j} | / N,
//     where theta_j = 2*pi * (arm_time_j mod L) / L and L is the round
//     length (Tp + Tc). Each node's phase is piecewise constant between
//     re-arms, so r is maintained as a running complex sum: subtract the
//     node's old phasor, add the new one. Nodes that have not re-armed
//     yet contribute zero (the denominator is always the full N), so r
//     ramps up over the first round and then tracks coherence exactly.
//   * normalized cluster entropy and largest-cluster fraction per round,
//     using the ClusterTracker's grouping rule (events within the
//     tolerance of the previous event share a cluster; a round is N
//     re-arms; a group counts toward the round it started in, and a
//     group straddling the boundary seeds the next round too). Only the
//     last closed round is reported, so its group sizes are kept and
//     both values are computed once, in finish().
//   * an online time-to-sync / changepoint detector: r crossing a
//     configurable threshold (with hysteresis on the way down) flips the
//     in-sync state, emits a `sync_transition` trace event, and records
//     the first up-crossing as the time to sync.
//   * a causal coupling graph attributing every re-arm to the router
//     whose transmission most recently extended the busy period that
//     just released the timer (see coupling_graph.hpp).
//
// Determinism contract: a monitor fed from a live run and a monitor fed
// from that run's trace (replay_sync below) perform the *same* sequence
// of floating-point operations on the *same* double values — trace times
// serialize via %.17g and round-trip exactly — so r(t), every transition
// (time, direction, r), and the coupling graph are bit-identical between
// the live run, any `--jobs` configuration (one monitor per trial,
// submission-order merge), and an offline recompute from the trace.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/coupling_graph.hpp"
#include "obs/trace_event.hpp"
#include "sim/time.hpp"

namespace routesync::obs {

class Tracer;

struct SyncMonitorConfig {
    int n = 0;               ///< router population (>= 1)
    double period_sec = 0.0; ///< phase modulus L, the round length (> 0)
    double threshold = 0.95; ///< detector up-crossing level for r
    /// Down-crossing at threshold - hysteresis. Quantized to 1e-6 on
    /// construction so the value survives the trace's integer slot and a
    /// replayed monitor runs on the identical double.
    double hysteresis = 0.02;
    double tolerance_sec = 1e-6; ///< cluster grouping tolerance
};

/// One detector crossing, exactly as traced (`sync_transition`).
struct SyncTransitionRecord {
    sim::SimTime time;
    bool up = false; ///< true: entered sync; false: left it
    double r = 0.0;  ///< order parameter at the crossing
};

/// The monitor's end-of-run summary (the source of all sync.* metrics).
struct SyncReport {
    std::uint64_t rearms = 0;        ///< re-arms fed to the monitor
    std::uint64_t transmissions = 0; ///< transmissions fed to the monitor
    std::uint64_t transitions = 0;   ///< detector crossings (both ways)
    std::uint64_t rounds_closed = 0; ///< closed rounds (the last one's entropy is reported)
    double r_last = 0.0;
    double r_max = 0.0;
    /// Last closed round's normalized entropy, in [0, 1]; set by finish().
    double entropy_last = 0.0;
    /// Last closed round's largest group / n; set by finish().
    double largest_fraction_last = 0.0;
    bool in_sync = false;               ///< detector state at finish
    double time_to_sync_sec = -1.0;     ///< first up-crossing; < 0 = never
};

class SyncMonitor {
public:
    /// Validates the config, quantizes the hysteresis, and — when
    /// `tracer` is non-null — emits the `sync_config` event that lets
    /// replay_sync reconstruct this exact monitor from the trace.
    explicit SyncMonitor(const SyncMonitorConfig& config,
                         Tracer* tracer = nullptr);

    /// Feed a timer re-arm (same stream ClusterTracker::on_timer_set
    /// consumes). Times must be nondecreasing.
    void on_timer_set(int node, sim::SimTime t);
    /// Feed a transmission (the UpdateTx stream) — the coupling-graph
    /// attribution source. Must be interleaved in event order.
    void on_transmit(int node, sim::SimTime t);

    /// Closes the open cluster group and round, seals the report, and
    /// emits one `coupling_edge` event per edge (sorted by (src, dst))
    /// at time `at` — pass the run's end time so trace times stay
    /// monotone. Idempotent.
    void finish(sim::SimTime at);

    /// Current order parameter (valid any time).
    [[nodiscard]] double r() const noexcept { return r_; }
    /// The summary; counters are live, round fields settle at finish().
    [[nodiscard]] const SyncReport& report() const noexcept { return report_; }
    [[nodiscard]] const CouplingGraph& coupling() const noexcept {
        return coupling_;
    }
    [[nodiscard]] const std::vector<SyncTransitionRecord>&
    transitions() const noexcept {
        return transitions_;
    }
    /// The config as actually used (hysteresis quantized).
    [[nodiscard]] const SyncMonitorConfig& config() const noexcept {
        return config_;
    }

private:
    void update_order_parameter(int node, sim::SimTime t);
    void update_clusters(sim::SimTime t);
    void finalize_group();
    void close_round();
    void settle_last_round();

    SyncMonitorConfig config_;
    Tracer* tracer_ = nullptr;
    double inv_n_ = 0.0;
    double inv_period_ = 0.0;

    // Order parameter: per-node phasors + running complex sum.
    std::vector<double> phasor_re_, phasor_im_; ///< +0.0 until armed
    double sum_re_ = 0.0, sum_im_ = 0.0;
    double r_ = 0.0;

    // Detector.
    bool in_sync_ = false;
    std::vector<SyncTransitionRecord> transitions_;

    // Coupling attribution.
    int last_tx_node_ = -1;
    CouplingGraph coupling_;

    // Cluster/round bookkeeping (mirrors ClusterTracker's grouping).
    bool group_open_ = false;
    sim::SimTime group_start_ = sim::SimTime::zero();
    sim::SimTime group_last_ = sim::SimTime::zero();
    int group_size_ = 0;
    std::uint64_t group_round_ = 0;
    std::uint64_t group_last_round_ = 0;
    std::uint64_t event_round_ = 0;
    int idx_in_round_ = 0;
    std::uint64_t current_round_ = 0;
    std::vector<int> round_sizes_;
    std::vector<int> last_round_sizes_; ///< settled into the report at finish()
    int spill_size_ = 0; ///< straddling group seeds the next round

    bool finished_ = false;
    SyncReport report_;
};

/// Overrides for replay_sync when the trace lacks a `sync_config` event
/// (unmonitored trace) or the caller wants different detector settings.
struct SyncReplayOverrides {
    int n = 0;               ///< 0: infer from the timer_set stream
    double period_sec = 0.0; ///< 0: take from sync_config (else required)
    double threshold = 0.0;  ///< 0: from sync_config, default 0.95
    double hysteresis = -1.0; ///< < 0: from sync_config, default 0.02
};

struct SyncReplayResult {
    SyncReport report;
    CouplingGraph coupling;
    std::vector<SyncTransitionRecord> transitions; ///< recomputed
    std::vector<SyncTransitionRecord> recorded;    ///< from the trace
    std::vector<CouplingGraph::Edge> recorded_edges; ///< from the trace
    bool have_config = false; ///< trace carried a sync_config event
    SyncMonitorConfig config; ///< the monitor config actually replayed
    std::uint64_t timer_sets_fed = 0;
    std::uint64_t initial_skipped = 0; ///< leading per-node arms skipped
};

/// Recomputes the full synchronization analysis from a trace alone by
/// feeding the timer_set/update_tx streams through a fresh SyncMonitor.
/// Skips each node's first timer_set (the model constructor's initial
/// arm, emitted before the live monitor was wired — the same rule as
/// core::replay_cluster_series), so the replayed monitor consumes the
/// exact stream the live one did and reproduces it bit for bit.
/// Throws std::runtime_error when the trace has no timer_set events or
/// no round length is available.
[[nodiscard]] SyncReplayResult
replay_sync(const std::vector<TraceEvent>& events,
            const SyncReplayOverrides& overrides = {});

} // namespace routesync::obs
