#include "core/trace_replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

namespace routesync::core {

TraceReplay replay_trace(const std::vector<obs::TraceEvent>& events,
                         const TraceReplayOptions& options) {
    TraceReplay result;

    // The node count and the monitor's config size the tracker and the
    // monitor, so they are read before the first re-arm is fed.
    int min_node = 0, max_node = -1;
    std::uint64_t timer_sets = 0;
    const obs::TraceEvent* sync_config = nullptr;
    for (const obs::TraceEvent& e : events) {
        if (e.type == obs::TraceEventType::TimerSet) {
            min_node = std::min(min_node, e.node);
            max_node = std::max(max_node, e.node);
            ++timer_sets;
        } else if (e.type == obs::TraceEventType::SyncConfig) {
            sync_config = &e;
        }
    }
    if (timer_sets == 0) {
        throw std::runtime_error{"replay_trace: trace has no timer_set events"};
    }
    // The initial arms cover every node, so max node + 1 is exact, and
    // each is one timer_set: a node id outside [0, timer_sets) names a node
    // the trace never armed, and is rejected before it sizes a table.
    if (min_node < 0 || static_cast<std::uint64_t>(max_node) >= timer_sets) {
        throw std::runtime_error{
            "replay_trace: timer_set of node " +
            std::to_string(min_node < 0 ? min_node : max_node) + " in a trace of " +
            std::to_string(timer_sets) + " timer_sets"};
    }
    result.n = max_node + 1;

    std::optional<obs::SyncMonitor> monitor;
    if (sync_config != nullptr || options.round_sec > 0.0) {
        obs::SyncMonitorConfig config =
            sync_config != nullptr ? obs::sync_config_from_event(*sync_config, result.n)
                                   : obs::SyncMonitorConfig{.n = result.n};
        if (options.round_sec > 0.0) {
            config.period_sec = options.round_sec;
        }
        monitor.emplace(config);
        result.sync.emplace();
    }

    // The tracker counts rounds in re-arms, never in seconds, so any
    // positive round length works here.
    ClusterTracker tracker{result.n, sim::SimTime::seconds(1.0), options.tolerance};
    tracker.record_rounds(false);
    tracker.record_round_sizes(monitor.has_value());
    tracker.on_size_first_reached = [&result](int size, sim::SimTime t) {
        result.replayed.push_back(ClusterEvent{t, size});
    };

    std::vector<bool> armed(static_cast<std::size_t>(result.n), false);
    for (const obs::TraceEvent& e : events) {
        switch (e.type) {
        case obs::TraceEventType::TimerSet: {
            const auto node = static_cast<std::size_t>(e.node);
            if (!armed[node]) {
                // The model constructor's initial arm, emitted before the
                // live run wired its tracker and monitor (see header).
                armed[node] = true;
                ++result.initial_skipped;
                break;
            }
            tracker.on_timer_set(e.node, e.time);
            if (monitor.has_value()) {
                monitor->on_timer_set(e.node, e.time);
            }
            ++result.timer_sets_fed;
            break;
        }
        case obs::TraceEventType::UpdateTx:
            if (monitor.has_value()) {
                monitor->on_transmit(e.node, e.time);
            }
            break;
        case obs::TraceEventType::ClusterChange:
            result.recorded.push_back(ClusterEvent{e.time, static_cast<int>(e.a)});
            break;
        case obs::TraceEventType::SyncTransition:
            if (result.sync.has_value()) {
                result.sync->recorded.push_back(
                    obs::SyncTransitionRecord{e.time, e.a != 0, e.b});
            }
            break;
        case obs::TraceEventType::CouplingEdge:
            if (result.sync.has_value()) {
                result.sync->recorded_edges.push_back(obs::CouplingGraph::Edge{
                    static_cast<int>(e.a), e.node,
                    static_cast<std::uint64_t>(std::llround(e.b))});
            }
            break;
        default:
            break;
        }
    }
    tracker.finish();

    if (monitor.has_value()) {
        SyncReplay& sync = *result.sync;
        monitor->finish(events.back().time);
        monitor->settle_rounds(tracker.last_round_sizes(), tracker.rounds_closed());
        sync.report = monitor->report();
        sync.coupling = monitor->coupling();
        sync.transitions = monitor->transitions();
        sync.transitions_match = sync.transitions == sync.recorded;
        sync.edges_match = sync.coupling.edges() == sync.recorded_edges;
    }
    return result;
}

std::string format_cluster_series(const std::vector<ClusterEvent>& series) {
    std::string out;
    char buf[64];
    for (const ClusterEvent& e : series) {
        std::snprintf(buf, sizeof buf, "%.17g %d\n", e.time.sec(), e.size);
        out += buf;
    }
    return out;
}

std::string diff_cluster_series(const std::vector<ClusterEvent>& got,
                                const std::vector<ClusterEvent>& want) {
    const std::size_t n = std::min(got.size(), want.size());
    char buf[192];
    for (std::size_t i = 0; i < n; ++i) {
        if (got[i].time != want[i].time || got[i].size != want[i].size) {
            std::snprintf(buf, sizeof buf,
                          "entry %zu differs: got (%.17g, %d), want (%.17g, %d)",
                          i, got[i].time.sec(), got[i].size,
                          want[i].time.sec(), want[i].size);
            return buf;
        }
    }
    if (got.size() != want.size()) {
        std::snprintf(buf, sizeof buf,
                      "length differs: got %zu entries, want %zu",
                      got.size(), want.size());
        return buf;
    }
    return {};
}

} // namespace routesync::core
