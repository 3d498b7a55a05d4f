// SweepScheduler: one work-stealing pool for a whole parameter sweep.
//
// Every paper figure is a sweep of independent run_experiment() trials
// over seeds and parameter grids. Each trial builds its own core, model
// and RNG from its ExperimentConfig, so trials share no mutable state and
// parallelize embarrassingly. The scheduler pools ALL (grid point x
// trial) tasks of a sweep up front and lets idle workers steal from
// whoever still has work: near the phase transition one point's trials
// run to max_time (minutes) while its neighbours' finish in
// milliseconds, and a barrier per point would leave most workers idle
// behind the slowest one.
//
// Scheduling is delegated to parallel::TaskPool (contiguous per-worker
// ranges, steal-back-half-of-largest, one global mutex — see
// task_pool.hpp); this class owns what is sweep-specific: the task body
// (one run_experiment call per task) and the result slots.
//
// Determinism contract:
//   * a task's config is a pure function of its submission index — a
//     trial's RNG stream must never depend on thread identity or
//     execution order. derive_seed() gives well-spread per-index seeds
//     from one base seed (any other index-only rule works too);
//   * results land in a pre-sized slot addressed by submission index;
//   * each task runs with obs = nullptr (per-task metrics/profiles come
//     back in the result; merge_sweep_into folds them in submission
//     order).
// Therefore --jobs N output is byte-identical to --jobs 1 for every N —
// stealing changes who computes a task, never what the task computes or
// where its result goes.
//
// Caution: ExperimentConfig::make_policy is invoked from worker threads;
// factories must be safe to call concurrently (stateless factories are).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/experiment.hpp"
#include "parallel/task_pool.hpp"

namespace routesync::obs {
class RunContext;
}

namespace routesync::parallel {

/// Derives the seed for trial `index` from a single base seed, using a
/// SplitMix64 step over Weyl-sequence increments. Adjacent indices get
/// statistically independent streams (this is the standard splitmix
/// stream-derivation trick), and the mapping is a pure function of
/// (base, index) — the cornerstone of run-order independence.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base,
                                        std::uint64_t index) noexcept;

struct SweepSchedulerOptions {
    /// Worker threads. 0 = hardware concurrency; 1 = run inline, no
    /// threads.
    std::size_t jobs = 0;
    /// Tasks per TaskPool claim. 0 = auto-tune from the sweep shape. It
    /// never changes a result. Kept for benchmark/workloads.cpp, which
    /// sizes its chunks with it.
    std::size_t batch = 0;
};

class SweepScheduler {
public:
    explicit SweepScheduler(SweepSchedulerOptions options = {});

    /// Effective worker count (never 0).
    [[nodiscard]] std::size_t jobs() const noexcept { return pool_.jobs(); }

    /// Claim size a run of `count` tasks would use (resolves the auto
    /// setting; never 0). Public only because benchmark/workloads.cpp
    /// sizes its chunks with it.
    [[nodiscard]] std::size_t effective_batch(std::size_t count) const noexcept;

    /// Runs one task per config; returns results in config order.
    [[nodiscard]] std::vector<core::ExperimentResult>
    run_all(const std::vector<core::ExperimentConfig>& configs);

    /// Runs `count` tasks whose configs are built on the claiming worker:
    /// `make_config(i)` receives the task index i in [0, count) and must
    /// be a pure function of it (called concurrently, possibly never for
    /// tasks a failed run abandons). Results come back in index order;
    /// the first task exception is rethrown after all workers join.
    [[nodiscard]] std::vector<core::ExperimentResult> run_generated(
        std::size_t count,
        const std::function<core::ExperimentConfig(std::size_t)>& make_config);

    /// Steals performed by the last run_all or run_generated —
    /// observability for tests and the bench footers. 0 under jobs = 1.
    [[nodiscard]] std::size_t steals() const noexcept { return steals_; }

private:
    TaskPool pool_;
    std::size_t batch_;
    std::size_t steals_ = 0;
};

/// Folds every trial's per-run metric snapshot (ExperimentResult::metrics)
/// in submission order. Because the fold order is the submission order —
/// not the completion order — the merged snapshot is byte-identical for
/// every --jobs value.
[[nodiscard]] obs::MetricsSnapshot
merge_trial_metrics(const std::vector<core::ExperimentResult>& results);

/// Same fold for the per-trial profiler snapshots. Labels and counts are
/// --jobs invariant (each trial's profiler sees exactly that trial's
/// scopes); wall-clock totals are genuinely nondeterministic.
[[nodiscard]] obs::ProfileSnapshot
merge_trial_profiles(const std::vector<core::ExperimentResult>& results);

/// Folds every task's metrics (and non-empty profiles) into `ctx` in
/// submission order: merge_trial_metrics and merge_trial_profiles.
void merge_sweep_into(obs::RunContext& ctx,
                      const std::vector<core::ExperimentResult>& results);

} // namespace routesync::parallel
