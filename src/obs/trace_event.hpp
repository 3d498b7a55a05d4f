// Typed trace events — the vocabulary of the observability layer.
//
// Every event carries the simulation time, the node it concerns, and a
// monotonically assigned sequence number (stamped by obs::Tracer), so a
// trace is a totally ordered, diffable record of one run. Events are
// emitted single-threaded from within one engine's callbacks; parallel
// sweeps give each trial its own engine *and* its own tracer, which is
// what makes traces byte-identical across `--jobs` counts.
//
// The payload is deliberately flat (generic slots `node`, `a`, `b`, `x`)
// so the event fits in a fixed-size ring buffer cell and serializes to
// one JSONL line without allocation. kTraceEvents is the one declaration
// of each type's name, producers and slot meanings and ranges: the
// writer and TraceReader read it, and docs/OBSERVABILITY.md renders it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <string_view>

#include "sim/time.hpp"

namespace routesync::obs {

enum class TraceEventType : std::uint8_t {
    TimerSet, TimerFire, TimerReset, PacketEnqueue, PacketDrop, PacketDeliver,
    UpdateTx, UpdateRx, CpuBusyBegin, CpuBusyEnd, ClusterChange, MetricSample,
    ResourceSample, SyncConfig, SyncTransition, CouplingEdge,
};

struct TraceEvent {
    std::uint64_t seq = 0; ///< 0-based, assigned by the Tracer
    sim::SimTime time = sim::SimTime::zero();
    TraceEventType type = TraceEventType::TimerSet;
    std::int32_t node = -1; ///< node id, or -1 when no node applies
    std::int64_t a = 0;     ///< per-type integer slot (see kTraceEvents)
    double b = 0.0;         ///< per-type real slot (see kTraceEvents)
    double x = 0.0;         ///< second per-type real slot (see kTraceEvents)
};

/// What a slot holds and the closed range [lo, hi] its value lies in,
/// infinite where only the field's own type bounds it. A slot that always
/// holds one value has lo == hi and no meaning; one that holds a count is
/// integral.
struct Slot {
    const char* meaning;
    double lo, hi;
    bool integral;
};

struct TraceEventSpec {
    TraceEventType type;
    const char* name;      ///< the JSONL `type` field
    const char* producers; ///< the emit sites
    Slot node, a, b, x;
};

namespace slot {
inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr double kNodeMax = std::numeric_limits<std::int32_t>::max();
/// The least double above 0: a range starting here excludes 0.
inline constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();
inline constexpr Slot kZero{"", 0.0, 0.0, false}; ///< unused: present and always 0
inline constexpr Slot kGlobal{"", -1.0, -1.0, false}; ///< no single node applies
constexpr Slot node(const char* m, double lo = 0.0) { return {m, lo, kNodeMax, false}; }
constexpr Slot count(const char* m, double lo = 0.0, double hi = kInf) {
    return {m, lo, hi, true};
}
/// Fed by a probe closure or a swept parameter: any finite value.
constexpr Slot any(const char* m) { return {m, -kInf, kInf, false}; }
inline constexpr Slot kPacketBytes =
    count("size (bytes)", 0.0, std::numeric_limits<std::uint32_t>::max());
} // namespace slot

/// The vocabulary, one row per TraceEventType in enum order. A slot is
/// bounded only where every emit site guarantees the bound.
inline constexpr TraceEventSpec kTraceEvents[] = {
    {TraceEventType::TimerSet, "timer_set", "PM model, DV agent",
     slot::node("timer owner"), slot::kZero, slot::any("interval from now (s)"),
     slot::kZero},
    {TraceEventType::TimerFire, "timer_fire", "PM model, DV agent",
     slot::node("timer owner"), slot::kZero, slot::kZero, slot::kZero},
    {TraceEventType::TimerReset, "timer_reset",
     "PM model, DV agent (`AfterProcessing`): a triggered update cancels the timer",
     slot::node("timer owner"), slot::kZero, slot::kZero, slot::kZero},
    {TraceEventType::PacketEnqueue, "packet_enqueue",
     "`QueueElement`, `DelayLink` (cut-through to an idle transmitter)",
     slot::node("packet source, or the `SharedLan` station", -1.0),
     slot::count("packet seq"), slot::kPacketBytes, slot::kZero},
    {TraceEventType::PacketDrop, "packet_drop",
     "`QueueElement`, `DelayLink` (link down), `Router` (CPU backlog), `SharedLan`",
     slot::node("packet source, router or station", -1.0), slot::count("packet seq"),
     slot::kPacketBytes, slot::kZero},
    {TraceEventType::PacketDeliver, "packet_deliver", "`DelayLink`, `SharedLan`",
     slot::node("destination (-1 = broadcast), or the sending station", -1.0),
     slot::count("packet seq"), slot::kPacketBytes, slot::kZero},
    {TraceEventType::UpdateTx, "update_tx", "PM model, DV agent", slot::node("sender"),
     slot::count("routes in the update (DV agent), transmissions so far (PM model)"),
     slot::count("1 if triggered (DV agent), else 0", 0.0, 1.0), slot::kZero},
    {TraceEventType::UpdateRx, "update_rx", "DV agent, once it has processed an update",
     slot::node("receiver"), slot::node("sender"), slot::count("routes received"),
     slot::kZero},
    {TraceEventType::CpuBusyBegin, "cpu_busy_begin", "`Router` route processor",
     slot::node("router"), slot::kZero, slot::any("processing cost (s)"), slot::kZero},
    {TraceEventType::CpuBusyEnd, "cpu_busy_end", "`Router` route processor",
     slot::node("router"), slot::count("packets buffered while busy"), slot::kZero,
     slot::kZero},
    {TraceEventType::ClusterChange, "cluster_change",
     "`ClusterTracker` via `run_experiment`", slot::kGlobal,
     slot::count("cluster size first reached", 1.0, slot::kNodeMax), slot::kZero,
     slot::kZero},
    {TraceEventType::MetricSample, "metric_sample", "`routesync sweep`", slot::kGlobal,
     slot::count("grid-point index"), slot::any("fraction unsynchronized"),
     slot::any("the swept Tr (s)")},
    {TraceEventType::ResourceSample, "resource_sample", "`obs::ResourceSampler`",
     slot::node("the source's node", -1.0), slot::count("source index"),
     slot::any("sampled value"), slot::any("capacity bound (0 = unbounded)")},
    {TraceEventType::SyncConfig, "sync_config", "`obs::SyncMonitor`, once, at attach",
     slot::kGlobal, slot::count("hysteresis in micro-units (`llround(h * 1e6)`)"),
     {"round length L (s)", slot::kAboveZero, slot::kInf, false},
     {"threshold", slot::kAboveZero, 1.0, false}},
    {TraceEventType::SyncTransition, "sync_transition", "`obs::SyncMonitor` detector",
     slot::kGlobal, slot::count("1 = entered sync, 0 = left sync", 0.0, 1.0),
     {"r(t) at the crossing", 0.0, 1.0 + 1e-9, false},
     {"threshold", slot::kAboveZero, 1.0, false}},
    {TraceEventType::CouplingEdge, "coupling_edge", "`obs::SyncMonitor` via `finish()`",
     slot::node("reset node (dst)"), slot::node("resetting node (src)"),
     slot::count("accumulated edge weight (resets)", 1.0), slot::kZero},
};

static_assert(
    [] {
        for (std::size_t i = 0; i < std::size(kTraceEvents); ++i) {
            if (static_cast<std::size_t>(kTraceEvents[i].type) != i) {
                return false;
            }
        }
        return kTraceEvents[std::size(kTraceEvents) - 1].type ==
               TraceEventType::CouplingEdge;
    }(),
    "kTraceEvents: row i describes TraceEventType i, one row per type");

/// Stable wire name of an event type (the JSONL `type` field).
[[nodiscard]] constexpr const char* trace_event_name(TraceEventType type) noexcept {
    return kTraceEvents[static_cast<std::size_t>(type)].name;
}

/// Inverse of trace_event_name(); nullopt for unknown names.
[[nodiscard]] constexpr std::optional<TraceEventType>
trace_event_type_from_name(std::string_view name) noexcept {
    for (const TraceEventSpec& spec : kTraceEvents) {
        if (name == spec.name) {
            return spec.type;
        }
    }
    return std::nullopt;
}

} // namespace routesync::obs
