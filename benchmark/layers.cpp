#include "layers.hpp"

#include <cstdio>
#include <limits>
#include <utility>

#include "core/cluster_tracker.hpp"
#include "obs/sync_monitor.hpp"
#include "obs/tracer.hpp"

namespace routesync::benchmark {

int SpanRecorder::open(const char* name, int parent, int thread) {
    const double now = seconds_between(origin_, Clock::now());
    const std::lock_guard<std::mutex> lock{mutex_};
    spans_.push_back(Span{name, parent, thread, now,
                          std::numeric_limits<double>::quiet_NaN()});
    return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int id) {
    const double now = seconds_between(origin_, Clock::now());
    const std::lock_guard<std::mutex> lock{mutex_};
    spans_[static_cast<std::size_t>(id)].end_s = now;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d}}",
                     i == 0 ? "" : ",\n", s.name, s.thread, s.start_s * 1e6,
                     s.duration() * 1e6, i, s.parent);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

MonitorReplay replay_pm_layers(const std::vector<obs::TraceEvent>& events, int n,
                               sim::SimTime round, ReplayTotals& totals) {
    // Pre-filter into the exact call sequences the live run made, so the
    // timed loops below contain nothing but the calls under measurement.
    struct Call {
        bool rearm;
        int node;
        sim::SimTime t;
    };
    std::vector<Call> calls;
    std::vector<std::pair<int, sim::SimTime>> rearms;
    std::vector<bool> armed(static_cast<std::size_t>(n), false);
    sim::SimTime end = sim::SimTime::zero();
    for (const obs::TraceEvent& e : events) {
        end = e.time;
        if (e.type == obs::TraceEventType::UpdateTx) {
            calls.push_back(Call{false, e.node, e.time});
        } else if (e.type == obs::TraceEventType::TimerSet) {
            const auto node = static_cast<std::size_t>(e.node);
            if (!armed[node]) {
                armed[node] = true; // the initial arm
                continue;
            }
            calls.push_back(Call{true, e.node, e.time});
            rearms.emplace_back(e.node, e.time);
        }
    }

    const auto t0 = Clock::now();
    core::ClusterTracker tracker{n, round};
    for (const auto& [node, t] : rearms) {
        tracker.on_timer_set(node, t);
    }
    tracker.finish();
    const auto t1 = Clock::now();

    obs::SyncMonitor monitor{
        obs::SyncMonitorConfig{.n = n, .period_sec = round.sec()}};
    for (const Call& c : calls) {
        if (c.rearm) {
            monitor.on_timer_set(c.node, c.t);
        } else {
            monitor.on_transmit(c.node, c.t);
        }
    }
    monitor.finish(end);
    const auto t2 = Clock::now();

    totals.tracker.seconds += seconds_between(t0, t1);
    totals.tracker.units += rearms.size();
    totals.monitor.seconds += seconds_between(t1, t2);
    totals.monitor.units += calls.size();
    return MonitorReplay{monitor.report().rearms,
                         monitor.coupling().total_weight()};
}

std::uint64_t replay_tracer(const std::vector<obs::TraceEvent>& events,
                            ReplayTotals& totals) {
    const auto t0 = Clock::now();
    obs::HashingSink sink;
    obs::Tracer tracer{sink};
    for (const obs::TraceEvent& e : events) {
        tracer.emit(e.type, e.time, e.node, e.a, e.b, e.x);
    }
    const auto t1 = Clock::now();
    totals.tracer.seconds += seconds_between(t0, t1);
    totals.tracer.units += events.size();
    return sink.digest();
}

} // namespace routesync::benchmark
