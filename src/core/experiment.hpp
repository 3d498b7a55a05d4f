// One-call experiment driver for the Periodic Messages model: builds the
// engine, model, and cluster tracker, wires them together, applies stop
// conditions, and returns a plain-data result. Every figure bench and most
// tests go through this entry point.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/cluster_tracker.hpp"
#include "core/periodic_messages.hpp"
#include "core/timer_policy.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/sync_monitor.hpp"
#include "sim/sim.hpp"

namespace routesync::obs {
class RunContext;
}

namespace routesync::core {

/// One routing-message transmission (Figure 4's scatter points).
struct TransmitRecord {
    int node;
    double time_sec;
    double offset_sec; ///< time mod (Tp + Tc)
};

/// Which simulation core executes the run. Both produce bit-identical
/// results (RNG order, event order, traces, metrics) — the choice is pure
/// performance.
enum class ExperimentBackend {
    /// FastKernel unless a feature needs the real engine (currently only
    /// the ResourceSampler: sample_every > 0 with an obs context).
    Auto,
    /// The generic DES engine + PeriodicMessagesModel.
    Engine,
    /// The fused PM fast path (core/pm_kernel.hpp). If sampling is
    /// requested, a ResourceSampler ticks on the kernel's event loop
    /// (PmKernel::schedule_hook), reporting rs.pm_kernel.* gauges —
    /// kernel state bytes and live queue depth over virtual time.
    FastKernel,
};

struct ExperimentConfig {
    ModelParams params;
    ExperimentBackend backend = ExperimentBackend::Auto;
    /// Hard stop; the run may end earlier via the stop_on_* conditions.
    sim::SimTime max_time = sim::SimTime::seconds(1e5);
    /// Stop the instant a cluster of size N forms.
    bool stop_on_full_sync = false;
    /// If > 0: stop the instant a cluster of at least this size forms
    /// (e.g. 2 to measure the time to the first pairing — the Markov
    /// model's f(2) calibration).
    int stop_on_cluster_size = 0;
    /// If > 0: stop once a closed round's largest cluster is <= this value
    /// (e.g. 1 to stop at full breakup). 0 disables.
    int stop_on_breakup_threshold = 0;
    /// Record every `transmit_stride`-th transmission (0 disables).
    int transmit_stride = 0;
    /// Record individual cluster events (time, size).
    bool record_cluster_events = false;
    /// Record the per-round largest-cluster series.
    bool record_rounds = false;
    /// Optional replacement timer policy (overrides params.tp/tr jitter).
    std::function<std::unique_ptr<TimerPolicy>()> make_policy;
    /// If set, fire a triggered update on every node at this time.
    std::optional<sim::SimTime> trigger_all_at;
    /// Optional observability context: its tracer (if any) is attached to
    /// the run's engine, so the model's timer/transmission events land in
    /// the configured sink, and cluster membership changes are traced.
    /// Not owned; must outlive the run. One context per concurrent run —
    /// do not share across parallel trials.
    obs::RunContext* obs = nullptr;
    /// If > 0 and `obs` is set: run a ResourceSampler at this cadence
    /// (seconds of sim time), emitting resource_sample events and rs.*
    /// gauges — the engine's queue depths on the engine path, kernel
    /// state bytes + queue depth on the explicit-FastKernel path. 0
    /// (default) = no sampler, no overhead. Sampling adds simulator
    /// events but never touches model state, so simulation outcomes are
    /// unchanged.
    double sample_every = 0.0;
    /// Attach a SyncMonitor (obs/sync_monitor.hpp): streaming order
    /// parameter r(t), per-round cluster entropy, the time-to-sync
    /// detector, and the causal coupling graph. Off by default — when
    /// off, the wiring is byte-for-byte what it was without the feature.
    /// On the PmKernel the monitor is a direct sink beside the tracker's
    /// (PmKernel::set_monitor_sink), which keeps the run on the general
    /// loop; the engine feeds both through the model's callbacks. Works
    /// on both backends with bit-identical results.
    bool monitor = false;
    /// Detector up-crossing level for r (monitor only).
    double sync_threshold = 0.95;
    /// Detector down-crossing at threshold - hysteresis (monitor only).
    double sync_hysteresis = 0.02;
};

struct ExperimentResult {
    std::optional<double> full_sync_time_sec;
    std::optional<double> breakup_time_sec; ///< vs stop_on_breakup_threshold
    std::vector<TransmitRecord> transmits;
    std::vector<ClusterEvent> cluster_events;
    std::vector<RoundLargest> rounds;
    /// [s] = first time (sec) a cluster of size >= s appeared, s in [1, N].
    std::vector<std::optional<double>> first_hit_up;
    /// [s] = end of first round whose largest cluster was <= s.
    std::vector<std::optional<double>> first_hit_down;
    std::uint64_t rounds_closed = 0;
    /// Closed rounds whose largest cluster was 1 (fully unsynchronized).
    std::uint64_t rounds_unsynchronized = 0;
    std::uint64_t total_transmissions = 0;
    std::uint64_t events_processed = 0;
    double end_time_sec = 0.0;
    double round_length_sec = 0.0;
    /// Bytes of simulation-core state the trial retained (SoA node arrays
    /// + timer-queue storage); divide by params.n for bytes/router. Filled
    /// by the kernel path, 0 on the generic engine (whose type-erased
    /// queue has no comparable accounting). Deliberately NOT a metric:
    /// metrics blocks are bit-identical across backends by contract, and
    /// this number is backend-specific by nature.
    std::uint64_t kernel_state_bytes = 0;
    /// Events the run pushed onto its event queue: PmKernel::queue_pushes()
    /// on the kernel path (a busy check served inline is never pushed, nor
    /// is a stale check moved within the calendar's lane),
    /// Engine::queue_pushes() on the engine path. Backend-specific like
    /// kernel_state_bytes, so deliberately NOT a metric either.
    std::uint64_t queue_pushes = 0;
    /// Synchronization analytics (set iff config.monitor was on).
    std::optional<obs::SyncReport> sync;
    /// Who-reset-whom graph (empty unless config.monitor was on).
    obs::CouplingGraph sync_coupling;
    /// Per-trial metric snapshot (always populated; cheap). Sweeps merge
    /// these deterministically across trials — see
    /// parallel::merge_trial_metrics.
    obs::MetricsSnapshot metrics;
    /// Per-trial profiler snapshot; empty unless the process-wide
    /// profiler is on (obs::Profiler::set_process_enabled). Labels and
    /// counts are deterministic; wall-clock times are not.
    obs::ProfileSnapshot profile;
};

/// Runs one Periodic Messages experiment to completion on the backend
/// the config picks, with its own profiler while the process-wide
/// profiler is on.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// run_experiment on each config in turn; results in input order. Kept
/// only because benchmark/workloads.cpp calls it.
[[nodiscard]] std::vector<ExperimentResult>
run_experiment_batch(std::span<const ExperimentConfig> configs);

} // namespace routesync::core
