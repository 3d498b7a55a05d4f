// Outside-in instrumentation for the routesync benchmark.
//
// Nothing here reaches inside src/: spans are recorded around calls into
// the libraries' public entry points, and the per-layer unit costs of the
// pieces that run *inside* those calls (the ClusterTracker, the
// SyncMonitor, the Tracer + HashingSink) are measured by capturing a
// run's event stream through a TraceSink and replaying it into fresh
// instances of those classes.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"
#include "sim/time.hpp"

namespace routesync::benchmark {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// One timed interval: a layer boundary crossed by the benchmark.
struct Span {
    const char* name = "";
    int parent = -1; ///< index of the enclosing span, -1 for a root
    int thread = 0;  ///< benchmark worker that recorded it
    double start_s = 0.0; ///< seconds since the recorder's origin
    double end_s = 0.0;
    [[nodiscard]] double duration() const { return end_s - start_s; }
};

/// In-memory span store. Spans are appended as they close and written
/// out once, at the end of the run; open() hands out the index a child
/// span names as its parent. Safe to use from several threads.
class SpanRecorder {
public:
    SpanRecorder() : origin_{Clock::now()} {}

    [[nodiscard]] int open(const char* name, int parent, int thread = 0);
    void close(int id);

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// Writes every span as a Chrome trace-event document (loadable in
    /// Perfetto / chrome://tracing). Returns false if the file cannot be
    /// written.
    bool write_chrome_json(const std::string& path) const;

private:
    Clock::time_point origin_;
    std::mutex mutex_; ///< guards spans_
    std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder& rec, const char* name, int parent, int thread = 0)
        : rec_{rec}, id_{rec.open(name, parent, thread)} {}
    ~ScopedSpan() { rec_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanRecorder& rec_;
    int id_;
};

/// Keeps every traced event of one run in memory, for replay.
class CaptureSink final : public obs::TraceSink {
public:
    void on_event(const obs::TraceEvent& event) override {
        ++seen_;
        events_.push_back(event);
    }
    [[nodiscard]] const std::vector<obs::TraceEvent>& events() const {
        return events_;
    }

private:
    std::vector<obs::TraceEvent> events_;
};

/// Host time spent in one replayed layer and the units it processed.
struct UnitCost {
    double seconds = 0.0;
    std::uint64_t units = 0;
    [[nodiscard]] double ns_per_unit() const {
        return units == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(units);
    }
};

/// Accumulated replay costs over every captured run of a workload.
struct ReplayTotals {
    UnitCost tracker; ///< ClusterTracker::on_timer_set per re-arm (+ finish)
    UnitCost monitor; ///< SyncMonitor per re-arm or transmission (+ finish)
    UnitCost tracer;  ///< Tracer::emit into a HashingSink, per event
};

/// What one replayed SyncMonitor concluded, for comparison with the
/// live monitor of the same run.
struct MonitorReplay {
    std::uint64_t rearms = 0;
    std::uint64_t coupling_weight = 0;
};

/// Replays the re-arm/transmit stream of a PM run with `n` routers and
/// round length `round` through a fresh ClusterTracker and a fresh
/// SyncMonitor, configured as run_experiment configures them, timing
/// each. Each node's first timer_set (the initial arm, emitted before the
/// live tracker is wired) is skipped, exactly as obs::replay_sync does.
MonitorReplay replay_pm_layers(const std::vector<obs::TraceEvent>& events, int n,
                               sim::SimTime round, ReplayTotals& totals);

/// Re-emits every captured event through a Tracer + HashingSink, timing
/// it; returns the digest, which equals the live run's HashingSink digest
/// when the live run hashed the same stream.
std::uint64_t replay_tracer(const std::vector<obs::TraceEvent>& events,
                            ReplayTotals& totals);

} // namespace routesync::benchmark
