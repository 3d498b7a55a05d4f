// RunContext: the single observability handle a run carries.
//
// One RunContext bundles the three legs of the observability layer —
// a trace sink (+ Tracer stamping sequence numbers), a MetricsRegistry,
// and a Manifest under construction — behind one object that scenario
// builders, bench::Options, and the CLI all plumb the same way:
//
//   obs::RunContext ctx;
//   ctx.trace_to_file("out.jsonl");          // or trace_to_ring(n), or neither
//   scenarios::NearnetScenario s{cfg, &ctx}; // attaches the tracer to the engine
//   ... run ...
//   ctx.manifest().tool = "my_tool";        // identity, seeds, config
//   ctx.write_manifest("manifest.json", engine.now().sec());
//
// A default-constructed context does not trace: tracer() returns null,
// every emit site in the stack reduces to one pointer test, and the
// metrics registry sits idle until someone writes to it.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"

namespace routesync::sim {
class Engine;
}

namespace routesync::obs {

class RunContext {
public:
    RunContext();

    RunContext(const RunContext&) = delete;
    RunContext& operator=(const RunContext&) = delete;

    /// Installs a sink (replacing any previous one) and starts tracing.
    void set_sink(std::unique_ptr<TraceSink> sink);
    /// Convenience: trace to a JSONL file / an in-memory ring buffer.
    void trace_to_file(const std::string& path);
    void trace_to_ring(std::size_t capacity);

    /// Null when no sink is installed — the zero-cost-off gate every
    /// instrumented component tests.
    [[nodiscard]] Tracer* tracer() noexcept {
        return tracer_.has_value() ? &*tracer_ : nullptr;
    }
    [[nodiscard]] bool tracing() const noexcept { return tracer_.has_value(); }
    [[nodiscard]] TraceSink* sink() noexcept { return sink_.get(); }

    /// Points the engine's tracer hook at this context, so every
    /// component built on that engine inherits it.
    void attach(sim::Engine& engine) noexcept;

    [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
    [[nodiscard]] Manifest& manifest() noexcept { return manifest_; }

    /// Folds an externally produced snapshot (e.g. one trial's metrics)
    /// into this run's totals; finish() combines these with the live
    /// registry. Merge order is caller-controlled — merge in submission
    /// order for determinism across --jobs values.
    void merge_metrics(const MetricsSnapshot& snap) { merged_.merge(snap); }

    /// Turns on the wall-clock self-profiler for this process and installs
    /// this context's profiler on the calling thread. Worker threads get
    /// their own per-trial profilers (run_experiment installs one when
    /// Profiler::process_enabled()); merge their snapshots back here.
    void enable_profiling();
    [[nodiscard]] bool profiling() const noexcept { return profiling_; }
    [[nodiscard]] Profiler& profiler() noexcept { return profiler_; }

    /// Folds one trial's profile into this run's totals (submission order,
    /// like merge_metrics). finish() combines these with the live profiler.
    void merge_profile(const ProfileSnapshot& snap) { merged_profile_.merge(snap); }

    /// Seals the run record: flushes the sink, snapshots the metrics into
    /// the manifest, stamps wall/sim time, peak RSS and (for file sinks)
    /// the trace path, event count, and content hash. Call once, after
    /// the run. Wall time counts from this context's construction.
    void finish(double sim_seconds);

    /// finish(), then writes manifest().to_json() to `path` — the only way
    /// a manifest reaches disk. Throws std::runtime_error if `path` cannot
    /// be opened.
    void write_manifest(const std::string& path, double sim_seconds);

private:
    std::unique_ptr<TraceSink> sink_;
    std::optional<Tracer> tracer_;
    MetricsRegistry metrics_;
    MetricsSnapshot merged_;
    Profiler profiler_;
    ProfileSnapshot merged_profile_;
    bool profiling_ = false;
    Manifest manifest_;
    std::string trace_path_; ///< non-empty for file sinks
    std::chrono::steady_clock::time_point started_;
};

} // namespace routesync::obs
