#include "obs/run_context.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "sim/engine.hpp"

namespace routesync::obs {

RunContext::RunContext() : started_{std::chrono::steady_clock::now()} {}

void RunContext::set_sink(std::unique_ptr<TraceSink> sink) {
    sink_ = std::move(sink);
    tracer_.reset();
    if (sink_ != nullptr) {
        tracer_.emplace(*sink_);
    }
}

void RunContext::trace_to_file(const std::string& path) {
    set_sink(std::make_unique<JsonlFileSink>(path));
    trace_path_ = path;
}

void RunContext::trace_to_ring(std::size_t capacity) {
    set_sink(std::make_unique<RingBufferSink>(capacity));
    trace_path_.clear();
}

void RunContext::attach(sim::Engine& engine) noexcept {
    engine.set_tracer(tracer());
}

void RunContext::enable_profiling() {
    profiling_ = true;
    Profiler::set_process_enabled(true);
    Profiler::set_current(&profiler_);
}

void RunContext::finish(double sim_seconds) {
    if (sink_ != nullptr) {
        sink_->flush();
        TraceInfo info;
        info.path = trace_path_;
        info.events = tracer_.has_value() ? tracer_->events_emitted() : 0;
        info.offered = sink_->events_seen();
        info.dropped = sink_->dropped_events();
        if (!trace_path_.empty()) {
            info.fnv1a = fnv1a_file(trace_path_);
        }
        manifest_.trace = std::move(info);
    }
    MetricsSnapshot combined = merged_;
    combined.merge(metrics_.snapshot());
    manifest_.metrics = std::move(combined);
    if (profiling_) {
        ProfileSnapshot prof = merged_profile_;
        prof.merge(profiler_.snapshot());
        manifest_.profile = std::move(prof);
    }
    manifest_.sim_seconds = sim_seconds;
    manifest_.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started_)
            .count();
    manifest_.peak_rss_bytes = peak_rss_bytes();
}

void RunContext::write_manifest(const std::string& path, double sim_seconds) {
    finish(sim_seconds);
    std::ofstream out{path};
    if (!out) {
        throw std::runtime_error{"RunContext::write_manifest: cannot open " + path};
    }
    out << manifest_.to_json();
}

} // namespace routesync::obs
