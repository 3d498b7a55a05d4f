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
//     A re-arm at the bit-same time as the one before reuses its phasor:
//     a cluster's members all re-arm at one shared busy end, so the phase
//     reduction and the sincos run once per re-arm instant, not per
//     member.
//   * an online time-to-sync / changepoint detector: r crossing a
//     configurable threshold (with hysteresis on the way down) flips the
//     in-sync state, emits a `sync_transition` trace event, and records
//     the first up-crossing as the time to sync. It compares the squared
//     sum q = |sum|^2 against two levels fixed at construction, the least
//     q whose r = sqrt(q) / N reaches the threshold and the down-crossing
//     level. That map is monotone, so the comparison is exact, and the
//     sqrt runs only at a new maximum, a crossing, r() and finish().
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

#include <bit>
#include <cmath>
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
    /// consumes). Times must be nondecreasing. Inline, like the tracker's:
    /// the PM kernel calls it on every re-arm of a monitored run.
    void on_timer_set(int node, sim::SimTime t) {
        if (node < 0 || node >= config_.n) {
            throw_node_out_of_range();
        }
        ++report_.rearms;
        // Attribution: the most recent transmission is the one whose busy-
        // period extension this re-arm waited out; before any transmission
        // the node can only have released itself.
        coupling_.add_edge(last_tx_node_ >= 0 ? last_tx_node_ : node, node);
        update_order_parameter(node, t);
    }
    /// Feed a transmission (the UpdateTx stream) — the coupling-graph
    /// attribution source. Must be interleaved in event order.
    void on_transmit(int node, sim::SimTime /*t*/) noexcept {
        ++report_.transmissions;
        last_tx_node_ = node;
    }

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
    [[nodiscard]] double r() const noexcept { return r_of(q_); }
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

    /// The detector's two levels as squared sums q = |sum|^2: `up` is the
    /// least double q whose r reaches the threshold, `down` the least
    /// whose r reaches threshold - hysteresis (0 when that level is not
    /// positive, as no r falls below it).
    struct DetectorSquares {
        double up = 0.0;
        double down = 0.0;
    };
    [[nodiscard]] DetectorSquares detector_squares() const noexcept {
        return squares_;
    }

private:
    [[noreturn]] static void throw_node_out_of_range();
    void update_order_parameter(int node, sim::SimTime t) {
        if (std::bit_cast<std::uint64_t>(t.sec()) != cached_bits_) {
            cache_phasor(t);
        }
        const auto idx = static_cast<std::size_t>(node);
        // An unarmed node's phasor is +0.0, and x - (+0.0) is x for every
        // x (-0.0 included), so the first re-arm needs no special case.
        sum_re_ = sum_re_ - phasor_re_[idx] + cached_re_;
        sum_im_ = sum_im_ - phasor_im_[idx] + cached_im_;
        phasor_re_[idx] = cached_re_;
        phasor_im_[idx] = cached_im_;
        q_ = sum_re_ * sum_re_ + sum_im_ * sum_im_;
        // r_of is monotone in q, so comparing q decides every r comparison.
        if (q_ > q_max_) {
            q_max_ = q_;
            report_.r_max = r_of(q_);
        }
        if (in_sync_ ? q_ < squares_.down : q_ >= squares_.up) {
            cross(t);
        }
    }
    /// Computes the phasor of a re-arm at `t` into the one-entry cache.
    void cache_phasor(sim::SimTime t);
    /// Flips the detector state at a crossing and records it.
    void cross(sim::SimTime t);
    [[nodiscard]] double r_of(double q) const noexcept {
        return std::sqrt(q) * inv_n_;
    }

    SyncMonitorConfig config_;
    Tracer* tracer_ = nullptr;
    double inv_n_ = 0.0;
    double inv_period_ = 0.0;

    // Order parameter: per-node phasors + running complex sum and its
    // squared magnitude q; r = r_of(q).
    std::vector<double> phasor_re_, phasor_im_; ///< +0.0 until armed
    double sum_re_ = 0.0, sum_im_ = 0.0;
    double q_ = 0.0;
    double q_max_ = 0.0; ///< the largest q so far; r_max = r_of(q_max_)
    // The phasor of the last computed re-arm time, keyed by its bits.
    std::uint64_t cached_bits_ = 0;
    double cached_re_ = 0.0, cached_im_ = 0.0;

    // Detector.
    DetectorSquares squares_;
    bool in_sync_ = false;
    std::vector<SyncTransitionRecord> transitions_;

    // Coupling attribution.
    int last_tx_node_ = -1;
    CouplingGraph coupling_;

    bool finished_ = false;
    SyncReport report_;
};

} // namespace routesync::obs
