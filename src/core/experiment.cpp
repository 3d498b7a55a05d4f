#include "core/experiment.hpp"

#include <optional>
#include <utility>

#include "core/pm_kernel.hpp"
#include "obs/resource_sampler.hpp"
#include "obs/run_context.hpp"
#include "obs/tracer.hpp"

namespace routesync::core {

namespace {

obs::Tracer* tracer_of(const ExperimentConfig& config) {
    return config.obs != nullptr ? config.obs->tracer() : nullptr;
}

bool sampled(const ExperimentConfig& config) {
    return config.sample_every > 0.0 && config.obs != nullptr;
}

/// The generic engine runs explicit Engine-backend configs and, under
/// Auto, sampled ones (the ResourceSampler then probes the engine's
/// queue); everything else runs on a PmKernel.
bool uses_engine(const ExperimentConfig& config) {
    return config.backend == ExperimentBackend::Engine ||
           (config.backend == ExperimentBackend::Auto && sampled(config));
}

/// One pooled tracker per thread: reset() reuses its buffers, so sweep
/// workers and figure benches stop paying per-trial tracker allocations
/// after their first trial. Safe because a thread runs one trial at a
/// time and Trial re-sets the record flags and callbacks after every
/// reset.
ClusterTracker& pooled_tracker(int n, sim::SimTime round_length) {
    thread_local std::unique_ptr<ClusterTracker> tracker;
    if (tracker == nullptr) {
        tracker = std::make_unique<ClusterTracker>(n, round_length);
    } else {
        tracker->reset(n, round_length);
    }
    return *tracker;
}

/// Builds the per-trial metrics snapshot (identical key order on every
/// path) and folds it into the config's RunContext if one is attached.
void finalize_metrics(const ExperimentConfig& config, ExperimentResult& result) {
    obs::MetricsRegistry reg;
    reg.add("experiment.transmissions", result.total_transmissions);
    reg.add("experiment.rounds_closed", result.rounds_closed);
    reg.add("experiment.rounds_unsynchronized", result.rounds_unsynchronized);
    reg.add("engine.events_processed", result.events_processed);
    reg.set_gauge("experiment.end_time_sec", result.end_time_sec);
    if (result.full_sync_time_sec.has_value()) {
        reg.add("experiment.full_sync_runs", 1);
        reg.observe("experiment.full_sync_time_sec", *result.full_sync_time_sec);
    }
    if (result.breakup_time_sec.has_value()) {
        reg.observe("experiment.breakup_time_sec", *result.breakup_time_sec);
    }
    if (result.sync.has_value()) {
        obs::publish_sync_metrics(reg, *result.sync, result.sync_coupling);
    }
    result.metrics = reg.snapshot();
    if (config.obs != nullptr) {
        config.obs->merge_metrics(result.metrics);
    }
}

/// Everything one trial adds around its simulation core, written once
/// for the engine and the kernel path: the pooled tracker, the
/// monitor, the transmit stride, the stop conditions, cluster-change
/// tracing, and result assembly. `stop` halts this trial's core.
class Trial {
public:
    Trial(const ExperimentConfig& config, ExperimentResult& result,
          sim::SimTime round_length, std::function<void()> stop)
        : config_{config},
          result_{result},
          tracker_{pooled_tracker(config.params.n, round_length)},
          round_length_{round_length},
          stop_{std::move(stop)} {
        tracker_.record_events(config.record_cluster_events);
        tracker_.record_rounds(config.record_rounds);
        tracker_.record_round_sizes(config.monitor);
        result_.round_length_sec = round_length.sec();

        obs::Tracer* tracer = tracer_of(config);
        if (config.monitor) {
            monitor_.emplace(
                obs::SyncMonitorConfig{.n = config.params.n,
                                       .period_sec = round_length.sec(),
                                       .threshold = config.sync_threshold,
                                       .hysteresis = config.sync_hysteresis},
                tracer);
        }

        if (config.stop_on_full_sync) {
            tracker_.on_full_sync = [this](sim::SimTime) { stop_(); };
        }
        if (config.stop_on_cluster_size > 0) {
            tracker_.on_size_first_reached =
                [this, limit = config.stop_on_cluster_size](int size, sim::SimTime) {
                    if (size >= limit) {
                        stop_();
                    }
                };
        }
        if (config.stop_on_breakup_threshold > 0) {
            tracker_.on_round_closed = [this, limit = config.stop_on_breakup_threshold](
                                           const RoundLargest& r) {
                if (r.largest <= limit) {
                    stop_();
                }
            };
        }
        if (tracer != nullptr) {
            // Trace cluster growth: the first time any cluster reaches a
            // new size. Chained in front of the stop condition (if set).
            auto prev = std::move(tracker_.on_size_first_reached);
            tracker_.on_size_first_reached = [tracer, prev = std::move(prev)](
                                                 int size, sim::SimTime t) {
                tracer->emit(obs::TraceEventType::ClusterChange, t, -1, size);
                if (prev) {
                    prev(size, t);
                }
            };
        }
    }

    Trial(const Trial&) = delete;
    Trial& operator=(const Trial&) = delete;

    /// The re-arm consumers, which the kernel feeds as direct sinks; the
    /// monitor is null unless the config asks for one.
    [[nodiscard]] ClusterTracker& tracker() noexcept { return tracker_; }
    [[nodiscard]] obs::SyncMonitor* monitor() noexcept {
        return monitor_.has_value() ? &*monitor_ : nullptr;
    }
    /// True when the config records transmissions (transmit_stride).
    [[nodiscard]] bool records_transmits() const noexcept {
        return config_.transmit_stride > 0;
    }

    /// The engine path's callbacks, which reach every consumer through
    /// the model's std::function hops.
    void on_transmit(int node, sim::SimTime t) {
        if (monitor_.has_value()) {
            monitor_->on_transmit(node, t);
        }
        record_transmit(node, t);
    }
    void on_timer_set(int node, sim::SimTime t) {
        tracker_.on_timer_set(node, t);
        if (monitor_.has_value()) {
            monitor_->on_timer_set(node, t);
        }
    }
    /// Records every transmit_stride-th transmission.
    void record_transmit(int node, sim::SimTime t) {
        const int stride = config_.transmit_stride;
        if (stride > 0 && tx_seen_++ % static_cast<std::uint64_t>(stride) == 0) {
            result_.transmits.push_back(
                TransmitRecord{node, t.sec(), t.mod(round_length_).sec()});
        }
    }

    /// Flushes the tracker's last group and round, then copies everything
    /// the run learned into the result. `end` is the core's final clock.
    void finish(sim::SimTime end, std::uint64_t transmissions,
                std::uint64_t events, std::uint64_t pushes,
                std::uint64_t state_bytes) {
        tracker_.finish();
        if (monitor_.has_value()) {
            // Finish at the run's end time so the coupling_edge events
            // keep the trace's time monotone past any later samples.
            monitor_->finish(end);
            monitor_->settle_rounds(tracker_.last_round_sizes(), tracker_.rounds_closed());
            result_.sync = monitor_->report();
            result_.sync_coupling = monitor_->coupling();
        }
        if (const auto t = tracker_.full_sync_time()) {
            result_.full_sync_time_sec = t->sec();
        }
        if (config_.stop_on_breakup_threshold > 0) {
            if (const auto t = tracker_.first_round_largest_at_most(
                    config_.stop_on_breakup_threshold)) {
                result_.breakup_time_sec = t->sec();
            }
        }
        const int n = config_.params.n;
        result_.first_hit_up.resize(static_cast<std::size_t>(n) + 1);
        result_.first_hit_down.resize(static_cast<std::size_t>(n) + 1);
        for (int s = 1; s <= n; ++s) {
            if (const auto t = tracker_.first_time_size_at_least(s)) {
                result_.first_hit_up[static_cast<std::size_t>(s)] = t->sec();
            }
            if (const auto t = tracker_.first_round_largest_at_most(s)) {
                result_.first_hit_down[static_cast<std::size_t>(s)] = t->sec();
            }
        }
        result_.cluster_events = tracker_.events();
        result_.rounds = tracker_.rounds();
        result_.rounds_closed = tracker_.rounds_closed();
        result_.rounds_unsynchronized = tracker_.rounds_with_largest_at_most(1);
        result_.total_transmissions = transmissions;
        result_.events_processed = events;
        result_.queue_pushes = pushes;
        result_.end_time_sec = end.sec();
        result_.kernel_state_bytes = state_bytes;
        finalize_metrics(config_, result_);
    }

private:
    const ExperimentConfig& config_;
    ExperimentResult& result_;
    ClusterTracker& tracker_;
    sim::SimTime round_length_;
    std::function<void()> stop_;
    std::optional<obs::SyncMonitor> monitor_;
    std::uint64_t tx_seen_ = 0;
};

void run_on_engine(const ExperimentConfig& config, ExperimentResult& result) {
    sim::Engine engine;
    if (config.obs != nullptr) {
        // Attach before the model exists so the initial timer schedule is
        // traced too.
        config.obs->attach(engine);
    }
    PeriodicMessagesModel model{engine, config.params,
                                config.make_policy ? config.make_policy() : nullptr};
    Trial trial{config, result, model.round_length(), [&engine] { engine.stop(); }};
    if (trial.records_transmits() || trial.monitor() != nullptr) {
        model.on_transmit = [&trial](int node, sim::SimTime t) {
            trial.on_transmit(node, t);
        };
    }
    model.on_timer_set = [&trial](int node, sim::SimTime t) {
        trial.on_timer_set(node, t);
    };
    if (config.trigger_all_at.has_value()) {
        engine.schedule_at(*config.trigger_all_at,
                           [&model] { model.trigger_update_all(); });
    }
    std::optional<obs::ResourceSampler> sampler;
    if (sampled(config)) {
        sampler.emplace(engine, *config.obs,
                        sim::SimTime::seconds(config.sample_every));
        sampler->watch_engine_queue();
        sampler->start();
    }
    {
        OBS_PROF_SCOPE("experiment.run");
        engine.run_until(config.max_time);
    }
    trial.finish(engine.now(), model.total_transmissions(),
                 engine.events_processed(), engine.queue_pushes(), 0);
}

void run_on_kernel(const ExperimentConfig& config, ExperimentResult& result) {
    PmKernel kernel{config.params, config.make_policy ? config.make_policy() : nullptr,
                    tracer_of(config)};
    Trial trial{config, result, kernel.round_length(), [&kernel] { kernel.stop(); }};
    kernel.set_tracker_sink(&trial.tracker());
    kernel.set_monitor_sink(trial.monitor());
    if (trial.records_transmits()) {
        kernel.on_transmit = [&trial](int node, sim::SimTime t) {
            trial.record_transmit(node, t);
        };
    }
    if (config.trigger_all_at.has_value()) {
        kernel.schedule_trigger_all(*config.trigger_all_at);
    }

    std::optional<obs::ResourceSampler> sampler;
    if (sampled(config)) {
        // Tick on the kernel's own event loop and probe its memory: the
        // rs.pm_kernel.* gauges show node-state + queue bytes over
        // virtual time (the metro-scale question --sample-every answers).
        sampler.emplace(
            [&kernel](sim::SimTime delay, std::function<void()> fn) {
                kernel.schedule_hook(kernel.now() + delay, std::move(fn));
            },
            [&kernel] { return kernel.now(); }, *config.obs,
            sim::SimTime::seconds(config.sample_every));
        sampler->add_source("pm_kernel.state_bytes", -1, [&kernel] {
            return obs::ResourceSampler::Sample{
                static_cast<double>(kernel.state_bytes()), 0.0};
        });
        sampler->add_source("pm_kernel.queue.live", -1, [&kernel] {
            return obs::ResourceSampler::Sample{
                static_cast<double>(kernel.queue_size()), 0.0};
        });
        sampler->start();
    }

    {
        OBS_PROF_SCOPE("experiment.run");
        kernel.run_until(config.max_time);
    }
    trial.finish(kernel.now(), kernel.total_transmissions(),
                 kernel.events_processed(), kernel.queue_pushes(),
                 kernel.state_bytes());
}

} // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
    // Each trial installs its own profiler (a no-op when profiling is off
    // process-wide): thread-locals don't propagate to worker threads, so
    // sweeps merge the per-trial snapshots back in submission order, like
    // metrics.
    ExperimentResult result;
    obs::Profiler trial_profiler;
    std::optional<obs::ScopedProfilerInstall> prof_install;
    if (obs::Profiler::process_enabled()) {
        prof_install.emplace(trial_profiler);
    }
    if (uses_engine(config)) {
        run_on_engine(config, result);
    } else {
        run_on_kernel(config, result);
    }
    prof_install.reset(); // restore the caller's profiler before merging
    result.profile = trial_profiler.snapshot();
    if (config.obs != nullptr && !result.profile.empty()) {
        config.obs->merge_profile(result.profile);
    }
    return result;
}

std::vector<ExperimentResult>
run_experiment_batch(std::span<const ExperimentConfig> configs) {
    std::vector<ExperimentResult> results;
    results.reserve(configs.size());
    for (const ExperimentConfig& config : configs) {
        results.push_back(run_experiment(config));
    }
    return results;
}

} // namespace routesync::core
