// Trace replay: recompute a run's synchronization analysis from its trace.
//
// A traced Periodic Messages run records two views of synchronization:
// the raw `timer_set` stream (every timer re-arm, with its node and time)
// and what the live run derived from it — the `cluster_change` stream
// (the first time each cluster size was reached, from the ClusterTracker)
// and, for a monitored run, the `sync_transition` and `coupling_edge`
// events of its SyncMonitor. replay_trace feeds the re-arm stream once
// through one fresh ClusterTracker, plus one fresh SyncMonitor when the
// trace carries a `sync_config` event or the caller names a round length,
// and returns the recomputed views next to the recorded ones. As in a
// live run, the monitor's cluster entropy comes from the tracker's rounds.
// `routesync trace summary`, `trace replay-check` and `analyze coupling`
// all read a trace through it: an end-to-end consistency check of the
// tracer, the serialization, the reader, the tracker and the monitor.
//
// One wrinkle: the model constructor arms each node's initial timer
// before the run wires its on_timer_set to the tracker and the monitor,
// so the trace holds one leading timer_set per node the live run never
// fed them. The replay skips each node's first timer_set to reproduce the
// exact stream the live run consumed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster_tracker.hpp"
#include "obs/coupling_graph.hpp"
#include "obs/sync_monitor.hpp"
#include "obs/trace_event.hpp"
#include "sim/time.hpp"

namespace routesync::core {

struct TraceReplayOptions {
    /// Grouping tolerance of the replayed tracker (the live default).
    sim::SimTime tolerance = sim::SimTime::micros(1.0);
    /// Round length of the replayed monitor, in seconds; overrides the
    /// trace's sync_config. 0 takes it from sync_config, and a trace
    /// without one is replayed without a monitor.
    double round_sec = 0.0;
};

/// What the replayed monitor recomputed, next to what the live one
/// recorded.
struct SyncReplay {
    obs::SyncReport report; ///< round readings from the replayed tracker
    obs::CouplingGraph coupling;
    std::vector<obs::SyncTransitionRecord> transitions; ///< recomputed
    std::vector<obs::SyncTransitionRecord> recorded;    ///< from the trace
    std::vector<obs::CouplingGraph::Edge> recorded_edges; ///< from the trace
    /// The recomputed transitions equal the recorded ones, bit for bit.
    bool transitions_match = false;
    /// The recomputed coupling graph equals the recorded coupling_edge
    /// events (both empty counts as equal).
    bool edges_match = false;
};

struct TraceReplay {
    int n = 0; ///< node count inferred from the timer_set stream
    std::uint64_t timer_sets_fed = 0;
    std::uint64_t initial_skipped = 0; ///< leading per-node timer_sets
    /// Cluster-size series recomputed from the trace's timer_set stream.
    std::vector<ClusterEvent> replayed;
    /// The cluster_change series recorded in the trace (a = size).
    std::vector<ClusterEvent> recorded;
    /// Set when a monitor ran: the trace carries sync_config (it comes
    /// from a monitored run) or the options name a round length.
    std::optional<SyncReplay> sync;
};

/// Replays `events` as described above. Throws std::runtime_error when
/// the trace holds no timer_set events, one of a negative node, or a node
/// id past its timer_set count (each node's initial arm is one).
[[nodiscard]] TraceReplay replay_trace(const std::vector<obs::TraceEvent>& events,
                                       const TraceReplayOptions& options = {});

/// One "time size" line per event, %.17g times — the exchange format of
/// fig04's --clusters-out and replay-check's --expect.
[[nodiscard]] std::string
format_cluster_series(const std::vector<ClusterEvent>& series);

/// Empty string when the two series match exactly; otherwise a
/// description of the first divergence.
[[nodiscard]] std::string diff_cluster_series(const std::vector<ClusterEvent>& got,
                                              const std::vector<ClusterEvent>& want);

} // namespace routesync::core
