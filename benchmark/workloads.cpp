#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/experiment.hpp"
#include "obs/run_context.hpp"
#include "obs/trace_sink.hpp"
#include "obs/tracer.hpp"
#include "parallel/sweep_scheduler.hpp"
#include "rng/splitmix64.hpp"
#include "scenarios/scenario_sweep.hpp"
#include "scenarios/shared_lan_scenario.hpp"

namespace routesync::benchmark {

namespace {

/// 64-bit FNV-1a over little-endian words: the per-operation checksum.
class Fnv {
public:
    Fnv& add(std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h_ ^= (v >> (8 * byte)) & 0xffU;
            h_ *= 1099511628211ULL;
        }
        return *this;
    }
    Fnv& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
    Fnv& add(const std::optional<double>& v) {
        return add(v.has_value() ? std::bit_cast<std::uint64_t>(*v)
                                 : ~std::uint64_t{0});
    }
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 14695981039346656037ULL;
};

/// Per-operation seed: a SplitMix64 draw keyed by the workload seed and
/// the operation's index, so neighbouring workload seeds share no trial.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
    rng::SplitMix64 mix{seed ^ ((index + 1) * 0xD1B54A32D192ED03ULL)};
    return mix() >> 1;
}

void fail_all(Pass& pass, std::size_t ops, const std::string& why) {
    pass.ops.assign(ops, OpOutcome{});
    for (OpOutcome& op : pass.ops) {
        op.error = why;
    }
}

// ---- Periodic Messages operations ------------------------------------------

struct PmTrial {
    int n = 0;
    double tc = 0.0;
    double tr = 0.0;
    std::uint64_t seed = 0;
};

core::ExperimentConfig pm_config(const PmTrial& t, double max_time) {
    core::ExperimentConfig cfg;
    cfg.params.n = t.n;
    cfg.params.tp = sim::SimTime::seconds(121.0);
    cfg.params.tc = sim::SimTime::seconds(t.tc);
    cfg.params.tr = sim::SimTime::seconds(t.tr);
    cfg.params.seed = t.seed;
    cfg.max_time = sim::SimTime::seconds(max_time);
    return cfg;
}

Fnv pm_result_hash(const core::ExperimentResult& r) {
    Fnv h;
    h.add(r.total_transmissions)
        .add(r.rounds_closed)
        .add(r.rounds_unsynchronized)
        .add(r.full_sync_time_sec);
    return h;
}

OpOutcome pm_outcome(const core::ExperimentResult& r, Fnv result) {
    OpOutcome op;
    op.result = result.value();
    op.counts = result.add(r.events_processed)
                    .add(r.kernel_state_bytes)
                    .add(r.end_time_sec)
                    .value();
    if (r.rounds_unsynchronized > r.rounds_closed || r.total_transmissions == 0) {
        op.error = "PM counters inconsistent (unsynchronized rounds > rounds, "
                   "or no transmissions)";
    }
    return op;
}

void add_pm_counts(Counts& c, const core::ExperimentResult& r, int n) {
    c.updates += r.total_transmissions;
    c.events += r.events_processed;
    c.rounds += r.rounds_closed;
    c.items += r.total_transmissions;
    c.state_bytes_per_router =
        std::max(c.state_bytes_per_router,
                 static_cast<double>(r.kernel_state_bytes) / n);
}

/// Common part of the PM workloads: a fixed list of trials, each run to a
/// fixed simulated time (no early stop, so the work per seed is steady).
class PmWorkload : public Workload {
public:
    [[nodiscard]] std::size_t op_count() const override { return trials_.size(); }

    ReplayTotals replay(std::vector<std::string>& errors) override {
        ReplayTotals totals;
        for (std::size_t i = 0; i < trials_.size(); ++i) {
            obs::RunContext ctx;
            ctx.set_sink(std::make_unique<CaptureSink>());
            core::ExperimentConfig cfg = config(i, max_time_);
            cfg.obs = &ctx;
            const core::ExperimentResult r = core::run_experiment(cfg);
            const auto& events =
                static_cast<const CaptureSink*>(ctx.sink())->events();
            const MonitorReplay monitor = replay_pm_layers(
                events, trials_[i].n, sim::SimTime::seconds(r.round_length_sec),
                totals);
            const std::uint64_t digest = replay_tracer(events, totals);
            check_replay(i, r, digest, monitor, errors);
        }
        return totals;
    }

protected:
    [[nodiscard]] virtual core::ExperimentConfig config(std::size_t i,
                                                        double max_time) const {
        return pm_config(trials_[i], max_time);
    }
    /// Workload-specific cross-checks of a captured run against the live
    /// result of the same operation (last_ holds the latest timed pass).
    virtual void check_replay(std::size_t i, const core::ExperimentResult& r,
                              std::uint64_t /*digest*/, const MonitorReplay&,
                              std::vector<std::string>& errors) {
        if (i < last_.size() &&
            pm_result_hash(r).value() != last_[i].result) {
            errors.push_back("capture run of op " + std::to_string(i) +
                             " changed the simulated result");
        }
    }

    std::vector<PmTrial> trials_;
    double max_time_ = 0.0;
    std::vector<OpOutcome> last_;
};

// ---- pm_grid ----------------------------------------------------------------

class PmGrid final : public PmWorkload {
public:
    PmGrid(std::uint64_t seed, Size size) {
        const int trials = size == Size::Full ? 4 : 1;
        max_time_ = size == Size::Full ? 1e5 : 3000.0;
        // Fig 13's grid, in the bench's own loop order and accumulation.
        for (const double tc : {0.01, 0.11}) {
            for (const int n : {10, 20, 30}) {
                for (double factor = 0.6; factor <= 8.01; factor += 0.4) {
                    for (int t = 0; t < trials; ++t) {
                        trials_.push_back(PmTrial{n, tc, factor * tc,
                                                  derive_seed(seed, trials_.size())});
                    }
                }
            }
        }
    }

    [[nodiscard]] std::size_t workers() const override { return 1; }
    [[nodiscard]] std::size_t pool_tasks() const override { return trials_.size(); }

    Pass run() override {
        Pass pass = sweep(max_time_);
        last_ = pass.ops;
        return pass;
    }
    void setup() override { (void)sweep(0.0); }

    std::vector<std::uint64_t> reference() override {
        // The scalar PmKernel, one trial at a time: the batched SoA
        // kernel's lanes must match it bit for bit.
        std::vector<std::uint64_t> out;
        for (std::size_t i = 0; i < trials_.size(); ++i) {
            core::ExperimentConfig cfg = config(i, max_time_);
            cfg.backend = core::ExperimentBackend::FastKernel;
            out.push_back(pm_result_hash(core::run_experiment(cfg)).value());
        }
        return out;
    }

    Pass run_traced(SpanRecorder& rec, int root) override {
        // The scheduler's own chunking at 1 worker, one span per
        // run_experiment_batch call.
        const auto t0 = Clock::now();
        Pass pass;
        const std::size_t count = trials_.size();
        const parallel::SweepScheduler sizing{
            parallel::SweepSchedulerOptions{.jobs = 1, .batch = 0}};
        const std::size_t chunk = sizing.effective_batch(count);
        for (std::size_t lo = 0; lo < count; lo += chunk) {
            const std::size_t len = std::min(chunk, count - lo);
            std::vector<core::ExperimentConfig> configs;
            configs.reserve(len);
            for (std::size_t i = lo; i < lo + len; ++i) {
                configs.push_back(config(i, max_time_));
            }
            std::vector<core::ExperimentResult> results;
            try {
                const ScopedSpan span{rec, "core.run_experiment_batch", root};
                results = core::run_experiment_batch(configs);
            } catch (const std::exception& e) {
                for (std::size_t i = 0; i < len; ++i) {
                    pass.ops.push_back(OpOutcome{0, 0, e.what()});
                }
                continue;
            }
            for (std::size_t i = 0; i < len; ++i) {
                collect(pass, results[i], lo + i);
            }
        }
        pass.wall_s = seconds_between(t0, Clock::now());
        return pass;
    }

private:
    Pass sweep(double max_time) {
        const auto t0 = Clock::now();
        Pass pass;
        parallel::SweepScheduler sched{
            parallel::SweepSchedulerOptions{.jobs = 1, .batch = 0}};
        std::vector<core::ExperimentResult> results;
        try {
            results = sched.run_generated(
                trials_.size(),
                [this, max_time](std::size_t i) { return config(i, max_time); });
        } catch (const std::exception& e) {
            fail_all(pass, trials_.size(), e.what());
            pass.wall_s = seconds_between(t0, Clock::now());
            return pass;
        }
        pass.wall_s = seconds_between(t0, Clock::now());
        pass.steals = sched.steals();
        for (std::size_t i = 0; i < results.size(); ++i) {
            collect(pass, results[i], i);
        }
        return pass;
    }

    void collect(Pass& pass, const core::ExperimentResult& r, std::size_t i) {
        pass.ops.push_back(pm_outcome(r, pm_result_hash(r)));
        add_pm_counts(pass.counts, r, trials_[i].n);
    }
};

// ---- pm_metro ---------------------------------------------------------------

class PmMetro final : public PmWorkload {
public:
    PmMetro(std::uint64_t seed, Size size) {
        const std::vector<int> rungs = size == Size::Full
                                           ? std::vector<int>{300, 3000, 30000}
                                           : std::vector<int>{300, 3000};
        max_time_ = size == Size::Full ? 20000.0 : 1000.0;
        for (const int n : rungs) {
            trials_.push_back(PmTrial{n, 0.11, 0.3, derive_seed(seed, trials_.size())});
        }
    }

    [[nodiscard]] std::size_t workers() const override { return 1; }
    [[nodiscard]] std::size_t pool_tasks() const override { return 0; }

    Pass run() override {
        Pass pass = ladder(max_time_, nullptr, -1);
        last_ = pass.ops;
        return pass;
    }
    void setup() override { (void)ladder(0.0, nullptr, -1); }
    Pass run_traced(SpanRecorder& rec, int root) override {
        return ladder(max_time_, &rec, root);
    }

    std::vector<std::uint64_t> reference() override {
        // All rungs as lanes of one batched SoA kernel: a separate
        // implementation (no calendar queue) that must match the scalar
        // kernel bit for bit. The generic engine would be the stricter
        // oracle but needs tens of seconds at N = 30 000.
        std::vector<core::ExperimentConfig> configs;
        for (std::size_t i = 0; i < trials_.size(); ++i) {
            configs.push_back(config(i, max_time_));
        }
        std::vector<std::uint64_t> out;
        for (const core::ExperimentResult& r : core::run_experiment_batch(configs)) {
            out.push_back(pm_result_hash(r).value());
        }
        return out;
    }

private:
    Pass ladder(double max_time, SpanRecorder* rec, int root) {
        const auto t0 = Clock::now();
        Pass pass;
        for (std::size_t i = 0; i < trials_.size(); ++i) {
            const core::ExperimentConfig cfg = config(i, max_time);
            try {
                std::optional<ScopedSpan> span;
                if (rec != nullptr) {
                    span.emplace(*rec, "core.run_experiment", root);
                }
                const core::ExperimentResult r = core::run_experiment(cfg);
                span.reset();
                pass.ops.push_back(pm_outcome(r, pm_result_hash(r)));
                add_pm_counts(pass.counts, r, trials_[i].n);
            } catch (const std::exception& e) {
                pass.ops.push_back(OpOutcome{0, 0, e.what()});
            }
        }
        pass.wall_s = seconds_between(t0, Clock::now());
        return pass;
    }
};

// ---- pm_monitor -------------------------------------------------------------

class PmMonitor final : public PmWorkload {
public:
    PmMonitor(std::uint64_t seed, Size size) {
        const int seeds = size == Size::Full ? 12 : 2;
        max_time_ = size == Size::Full ? 2e5 : 5000.0;
        for (int s = 0; s < seeds; ++s) {
            trials_.push_back(PmTrial{20, 0.11, 0.1, derive_seed(seed, trials_.size())});
        }
    }

    [[nodiscard]] std::size_t workers() const override { return 1; }
    [[nodiscard]] std::size_t pool_tasks() const override { return 0; }

    Pass run() override {
        Pass pass = seeds(max_time_, core::ExperimentBackend::Auto, nullptr, -1);
        last_ = pass.ops;
        return pass;
    }
    void setup() override {
        (void)seeds(0.0, core::ExperimentBackend::Auto, nullptr, -1);
    }
    Pass run_traced(SpanRecorder& rec, int root) override {
        return seeds(max_time_, core::ExperimentBackend::Auto, &rec, root);
    }

    std::vector<std::uint64_t> reference() override {
        // Same monitored, hashed runs on the generic event engine: the
        // trace digest, sync report and coupling graph must all agree.
        const Pass pass =
            seeds(max_time_, core::ExperimentBackend::Engine, nullptr, -1);
        std::vector<std::uint64_t> out;
        for (const OpOutcome& op : pass.ops) {
            out.push_back(op.result);
        }
        return out;
    }

protected:
    [[nodiscard]] core::ExperimentConfig config(std::size_t i,
                                                double max_time) const override {
        core::ExperimentConfig cfg = pm_config(trials_[i], max_time);
        cfg.monitor = true;
        return cfg;
    }

    void check_replay(std::size_t i, const core::ExperimentResult& /*r*/,
                      std::uint64_t digest, const MonitorReplay& monitor,
                      std::vector<std::string>& errors) override {
        // The replayed tracer must reproduce the live HashingSink digest,
        // and the replayed monitor the live re-arm count and coupling.
        if (i >= live_.size()) {
            return;
        }
        const Live& live = live_[i];
        const std::string op = "pm_monitor op " + std::to_string(i);
        if (digest != live.digest) {
            errors.push_back(op + ": replayed trace digest differs from the live one");
        }
        if (monitor.rearms != live.rearms ||
            monitor.coupling_weight != live.coupling_weight) {
            errors.push_back(op + ": replayed SyncMonitor disagrees with the live one");
        }
    }

private:
    struct Live {
        std::uint64_t digest = 0;
        std::uint64_t rearms = 0;
        std::uint64_t coupling_weight = 0;
    };

    Pass seeds(double max_time, core::ExperimentBackend backend,
               SpanRecorder* rec, int root) {
        const auto t0 = Clock::now();
        Pass pass;
        std::vector<Live> live;
        for (std::size_t i = 0; i < trials_.size(); ++i) {
            try {
                obs::RunContext ctx;
                ctx.set_sink(std::make_unique<obs::HashingSink>());
                core::ExperimentConfig cfg = config(i, max_time);
                cfg.backend = backend;
                cfg.obs = &ctx;
                std::optional<ScopedSpan> span;
                if (rec != nullptr) {
                    span.emplace(*rec, "core.run_experiment", root);
                }
                const core::ExperimentResult r = core::run_experiment(cfg);
                span.reset();
                const auto* sink = static_cast<const obs::HashingSink*>(ctx.sink());
                if (!r.sync.has_value()) {
                    throw std::runtime_error{"monitored run returned no SyncReport"};
                }
                const obs::SyncReport& s = *r.sync;
                Fnv result = pm_result_hash(r);
                result.add(sink->digest())
                    .add(sink->events_seen())
                    .add(s.rearms)
                    .add(s.transmissions)
                    .add(s.transitions)
                    .add(s.time_to_sync_sec)
                    .add(s.r_last)
                    .add(r.sync_coupling.total_weight())
                    .add(static_cast<std::uint64_t>(r.sync_coupling.edge_count()));
                OpOutcome op = pm_outcome(r, result);
                if (r.sync_coupling.total_weight() != s.rearms) {
                    op.error = "coupling weight " +
                               std::to_string(r.sync_coupling.total_weight()) +
                               " != re-arms " + std::to_string(s.rearms);
                }
                pass.ops.push_back(op);
                add_pm_counts(pass.counts, r, trials_[i].n);
                pass.counts.trace_events += sink->events_seen();
                pass.counts.monitor_events += s.rearms + s.transmissions;
                pass.counts.coupling_edges += r.sync_coupling.edge_count();
                live.push_back(Live{sink->digest(), s.rearms,
                                    r.sync_coupling.total_weight()});
            } catch (const std::exception& e) {
                pass.ops.push_back(OpOutcome{0, 0, e.what()});
                live.push_back(Live{});
            }
        }
        pass.wall_s = seconds_between(t0, Clock::now());
        if (max_time == max_time_ && backend == core::ExperimentBackend::Auto) {
            live_ = std::move(live);
        }
        return pass;
    }

    std::vector<Live> live_;
};

// ---- lan_grid ---------------------------------------------------------------

class LanGrid final : public Workload {
public:
    LanGrid(std::uint64_t seed, Size size) {
        sweep_.base.queue_disc = net::elements::QueueDisc::Red;
        sweep_.base.seed = derive_seed(seed, 0) >> 16;
        sweep_.base.max_time =
            sim::SimTime::seconds(size == Size::Full ? 300.0 : 20.0);
        sweep_.buffers = {4, 8, 16, 32};
        sweep_.loads = {0.8, 1.2};
        sweep_.trials = size == Size::Full ? 3 : 1;
        sweep_.jobs = 2;
        sweep_.hash_traces = true;
    }

    [[nodiscard]] std::size_t op_count() const override {
        return sweep_.buffers.size() * sweep_.loads.size() *
               static_cast<std::size_t>(sweep_.trials);
    }
    [[nodiscard]] std::size_t workers() const override { return sweep_.jobs; }
    [[nodiscard]] std::size_t pool_tasks() const override { return op_count(); }

    Pass run() override {
        Pass pass = sweep(sweep_);
        last_ = pass.ops;
        return pass;
    }

    void setup() override {
        scenarios::ScenarioSweepConfig cfg = sweep_;
        cfg.base.max_time = sim::SimTime::zero();
        (void)sweep(cfg);
    }

    std::vector<std::uint64_t> reference() override {
        // One worker and the virtual-dispatch element graph: the
        // differential reference of the fast packet path.
        scenarios::ScenarioSweepConfig cfg = sweep_;
        cfg.jobs = 1;
        cfg.base.dispatch = net::elements::DispatchMode::Virtual;
        const Pass pass = sweep(cfg);
        std::vector<std::uint64_t> out;
        for (const OpOutcome& op : pass.ops) {
            out.push_back(op.result);
        }
        return out;
    }

    Pass run_traced(SpanRecorder& rec, int root) override {
        // The sweep's cells on the same number of workers, one span per
        // run_shared_lan_scenario call; cells are claimed in index order.
        const auto t0 = Clock::now();
        const std::size_t count = op_count();
        std::vector<OpOutcome> ops(count);
        std::vector<scenarios::SharedLanScenarioResult> results(count);
        std::vector<std::uint64_t> events(count, 0);
        std::atomic<std::size_t> next{0};
        const auto worker = [&](int thread) {
            for (std::size_t i = next++; i < count; i = next++) {
                try {
                    obs::HashingSink sink;
                    obs::Tracer tracer{sink};
                    scenarios::SharedLanScenarioConfig cfg = cell_config(i);
                    cfg.tracer = &tracer;
                    {
                        const ScopedSpan span{rec, "net.run_shared_lan_scenario",
                                              root, thread};
                        results[i] = scenarios::run_shared_lan_scenario(cfg);
                    }
                    ops[i] = cell_outcome(results[i], sink.digest(),
                                          sink.events_seen());
                    events[i] = sink.events_seen();
                } catch (const std::exception& e) {
                    ops[i].error = e.what();
                }
            }
        };
        {
            std::vector<std::jthread> threads;
            for (std::size_t t = 1; t < sweep_.jobs; ++t) {
                threads.emplace_back(worker, static_cast<int>(t));
            }
            worker(0);
        }
        Pass pass;
        pass.wall_s = seconds_between(t0, Clock::now());
        pass.ops = std::move(ops);
        for (std::size_t i = 0; i < count; ++i) {
            add_counts(pass.counts, results[i], events[i]);
        }
        return pass;
    }

    ReplayTotals replay(std::vector<std::string>& errors) override {
        ReplayTotals totals;
        for (std::size_t i = 0; i < op_count(); ++i) {
            CaptureSink sink;
            obs::Tracer tracer{sink};
            scenarios::SharedLanScenarioConfig cfg = cell_config(i);
            cfg.tracer = &tracer;
            const scenarios::SharedLanScenarioResult r =
                scenarios::run_shared_lan_scenario(cfg);
            const std::uint64_t digest = replay_tracer(sink.events(), totals);
            if (i < last_.size() &&
                cell_outcome(r, digest, sink.events_seen()).result != last_[i].result) {
                errors.push_back("lan_grid cell " + std::to_string(i) +
                                 ": replayed trace digest differs from the sweep's");
            }
        }
        return totals;
    }

private:
    /// The sweep's documented cell decomposition: buffer-major, then
    /// load, then trial; bg_burst = round(base * load), seed = base + trial.
    [[nodiscard]] scenarios::SharedLanScenarioConfig cell_config(std::size_t i) const {
        const auto trials = static_cast<std::size_t>(sweep_.trials);
        const std::size_t per_buffer = sweep_.loads.size() * trials;
        const std::size_t rem = i % per_buffer;
        scenarios::SharedLanScenarioConfig cfg = sweep_.base;
        cfg.queue_packets = sweep_.buffers[i / per_buffer];
        cfg.bg_burst = std::max(
            0, static_cast<int>(std::lround(static_cast<double>(sweep_.base.bg_burst) *
                                            sweep_.loads[rem / trials])));
        cfg.seed = sweep_.base.seed + rem % trials;
        return cfg;
    }

    OpOutcome cell_outcome(const scenarios::SharedLanScenarioResult& r,
                           std::uint64_t digest, std::uint64_t events) const {
        Fnv h;
        h.add(digest)
            .add(events)
            .add(r.frames_offered)
            .add(r.frames_delivered)
            .add(r.collisions)
            .add(r.drops_queue_full)
            .add(r.red_early_drops)
            .add(r.red_forced_drops)
            .add(r.updates_sent)
            .add(r.updates_heard)
            .add(static_cast<std::uint64_t>(r.largest_cluster))
            .add(r.end_time_s);
        OpOutcome op{h.value(), h.value(), {}};
        const auto receivers = static_cast<std::uint64_t>(sweep_.base.n - 1);
        if (r.frames_delivered > r.frames_offered ||
            r.updates_heard > r.updates_sent * receivers) {
            op.error = "LAN counters inconsistent (delivered > offered or "
                       "heard > sent x (n - 1))";
        }
        return op;
    }

    void add_counts(Counts& c, const scenarios::SharedLanScenarioResult& r,
                    std::uint64_t trace_events) const {
        c.frames_offered += r.frames_offered;
        c.frames_delivered += r.frames_delivered;
        c.collisions += r.collisions;
        c.red_early_drops += r.red_early_drops;
        c.forced_drops += r.red_forced_drops;
        c.lan_updates_sent += r.updates_sent;
        c.lan_updates_heard += r.updates_heard;
        c.lan_update_receivers +=
            r.updates_sent * static_cast<std::uint64_t>(sweep_.base.n - 1);
        c.trace_events += trace_events;
        c.items += r.frames_delivered;
    }

    Pass sweep(const scenarios::ScenarioSweepConfig& cfg) {
        const auto t0 = Clock::now();
        Pass pass;
        scenarios::ScenarioSweepResult result;
        try {
            result = scenarios::run_scenario_sweep(cfg);
        } catch (const std::exception& e) {
            fail_all(pass, op_count(), e.what());
            pass.wall_s = seconds_between(t0, Clock::now());
            return pass;
        }
        pass.wall_s = seconds_between(t0, Clock::now());
        pass.steals = result.steals;
        for (const scenarios::ScenarioSweepCell& cell : result.cells) {
            pass.ops.push_back(
                cell_outcome(cell.result, cell.trace_digest, cell.trace_events));
            add_counts(pass.counts, cell.result, cell.trace_events);
        }
        return pass;
    }

    scenarios::ScenarioSweepConfig sweep_;
    std::vector<OpOutcome> last_;
};

} // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size) {
    if (name == "pm_grid") {
        return std::make_unique<PmGrid>(seed, size);
    }
    if (name == "pm_metro") {
        return std::make_unique<PmMetro>(seed, size);
    }
    if (name == "lan_grid") {
        return std::make_unique<LanGrid>(seed, size);
    }
    if (name == "pm_monitor") {
        return std::make_unique<PmMonitor>(seed, size);
    }
    throw std::invalid_argument{"unknown workload '" + name + "'"};
}

} // namespace routesync::benchmark
