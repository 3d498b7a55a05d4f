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
//   * an online time-to-sync / changepoint detector: r crossing a
//     configurable threshold (with hysteresis on the way down) flips the
//     in-sync state, emits a `sync_transition` trace event, and records
//     the first up-crossing as the time to sync.
//   * a causal coupling graph attributing every re-arm to the router
//     whose transmission most recently extended the busy period that
//     just released the timer (see coupling_graph.hpp).
//
// The monitor groups nothing. The run's ClusterTracker, fed the same
// re-arms, owns clusters and N-re-arm rounds at its own tolerance; at the
// end of the run it hands settle_rounds() the last closed round's group
// sizes and the closed-round count, and the monitor turns them into the
// normalized cluster entropy and the largest-cluster fraction.
//
// Determinism contract: a monitor fed from a live run and a monitor fed
// from that run's trace (core::replay_trace) perform the *same* sequence
// of floating-point operations on the *same* double values — trace times
// serialize via %.17g and round-trip exactly — so r(t), every transition
// (time, direction, r), and the coupling graph are bit-identical between
// the live run, any `--jobs` configuration (one monitor per trial,
// submission-order merge), and an offline recompute from the trace.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/coupling_graph.hpp"
#include "obs/trace_event.hpp"
#include "sim/time.hpp"

namespace routesync::obs {

class MetricsRegistry;
class Tracer;

struct SyncMonitorConfig {
    int n = 0;               ///< router population (>= 1)
    double period_sec = 0.0; ///< phase modulus L, the round length (> 0)
    double threshold = 0.95; ///< detector up-crossing level for r
    /// Down-crossing at threshold - hysteresis. Quantized to 1e-6 on
    /// construction so the value survives the trace's integer slot and a
    /// replayed monitor runs on the identical double.
    double hysteresis = 0.02;
};

/// The config a `sync_config` trace event records, for `n` nodes: the
/// inverse of what the SyncMonitor constructor emits, so a replayed
/// monitor runs on the live one's exact doubles.
[[nodiscard]] SyncMonitorConfig sync_config_from_event(const TraceEvent& e,
                                                       int n);

/// One detector crossing, exactly as traced (`sync_transition`).
struct SyncTransitionRecord {
    sim::SimTime time;
    bool up = false; ///< true: entered sync; false: left it
    double r = 0.0;  ///< order parameter at the crossing

    bool operator==(const SyncTransitionRecord&) const = default;
};

/// The monitor's end-of-run summary (the source of all sync.* metrics).
struct SyncReport {
    std::uint64_t rearms = 0;        ///< re-arms fed to the monitor
    std::uint64_t transmissions = 0; ///< transmissions fed to the monitor
    std::uint64_t transitions = 0;   ///< detector crossings (both ways)
    /// The tracker's closed rounds (the last one's entropy is reported);
    /// set by settle_rounds(), like the two readings below.
    std::uint64_t rounds_closed = 0;
    double r_last = 0.0;
    double r_max = 0.0;
    /// Last closed round's normalized entropy, in [0, 1].
    double entropy_last = 0.0;
    /// Last closed round's largest group / n.
    double largest_fraction_last = 0.0;
    bool in_sync = false;               ///< detector state at finish
    double time_to_sync_sec = -1.0;     ///< first up-crossing; < 0 = never
};

/// Adds one monitored run's sync.* metrics to `reg`: the counters
/// sync.rearms, sync.transitions, sync.coupling_edges and (if it synced)
/// sync.synced_runs; the gauges sync.r_last, sync.r_max,
/// sync.entropy_last and sync.largest_fraction_last; and the distribution
/// sync.time_to_sync_sec. Every producer of sync.* metrics calls this.
void publish_sync_metrics(MetricsRegistry& reg, const SyncReport& report,
                          const CouplingGraph& coupling);

class SyncMonitor {
public:
    /// Validates the config, quantizes the hysteresis, and — when
    /// `tracer` is non-null — emits the `sync_config` event that lets
    /// core::replay_trace reconstruct this exact monitor from the trace.
    explicit SyncMonitor(const SyncMonitorConfig& config,
                         Tracer* tracer = nullptr);

    /// Feed a timer re-arm (same stream ClusterTracker::on_timer_set
    /// consumes). Times must be nondecreasing.
    void on_timer_set(int node, sim::SimTime t);
    /// Feed a transmission (the UpdateTx stream) — the coupling-graph
    /// attribution source. Must be interleaved in event order.
    void on_transmit(int node, sim::SimTime t);

    /// Seals r and the detector state into the report and emits one
    /// `coupling_edge` event per edge (sorted by (src, dst)) at time
    /// `at` — pass the run's end time so trace times stay monotone.
    /// Idempotent.
    void finish(sim::SimTime at);

    /// Settles rounds_closed, entropy_last and largest_fraction_last from
    /// the finished ClusterTracker that saw the same re-arms:
    /// `last_round` is its last closed round's group sizes
    /// (ClusterTracker::last_round_sizes), `rounds_closed` its closed-round
    /// count. Without a call the three read 0.
    void settle_rounds(std::span<const int> last_round,
                       std::uint64_t rounds_closed);

    /// Current order parameter (valid any time).
    [[nodiscard]] double r() const noexcept { return r_; }
    /// The summary; counters are live, r_last and in_sync settle at
    /// finish(), the round fields at settle_rounds().
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

    bool finished_ = false;
    SyncReport report_;
};

} // namespace routesync::obs
