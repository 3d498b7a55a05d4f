// SweepScheduler: one work-stealing pool for a whole parameter sweep.
//
// TrialRunner parallelizes the trials *inside* one grid point and then
// joins — a barrier per point. That wastes cores precisely where sweeps
// hurt: near the phase transition one point's trials run to max_time
// (minutes) while its neighbours' finish in milliseconds, so every round
// of the sweep ends with most workers idle behind the slowest point. The
// scheduler instead pools ALL (grid point x trial) tasks of the sweep up
// front and lets idle workers steal from whoever still has work, so the
// long tail of a hard grid point is shared by the whole machine instead
// of serializing it.
//
// Scheduling is delegated to parallel::TaskPool (contiguous per-worker
// ranges, steal-back-half-of-largest, one global mutex — see
// task_pool.hpp); this class owns what is sweep-specific: lazy config
// materialization, the chunk body (one run_experiment_batch call per
// claim), and result assembly.
//
// Determinism contract (same as TrialRunner, sweep-wide):
//   * a task's config is a pure function of its submission index;
//   * results land in a pre-sized slot addressed by submission index;
//   * each task runs with obs = nullptr (per-task metrics/profiles come
//     back in the result; merge_sweep_into folds them in submission
//     order).
// Therefore --jobs N output is byte-identical to --jobs 1 for every N —
// stealing changes who computes a task, never what the task computes or
// where its result goes.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/experiment.hpp"
#include "parallel/task_pool.hpp"

namespace routesync::obs {
class RunContext;
}

namespace routesync::parallel {

struct SweepSchedulerOptions {
    /// Worker threads. 0 = hardware concurrency; 1 = run inline, no
    /// threads.
    std::size_t jobs = 0;
    /// Tasks per claim, executed lock-step as the lanes of one PmKernel
    /// (core::run_experiment_batch). 0 = auto-tune from the sweep shape;
    /// 1 = one single-lane kernel per trial. Since every batch size
    /// produces bit-identical per-task results, this is a pure
    /// performance knob — the determinism contract above holds for every
    /// (jobs, batch) pair.
    std::size_t batch = 0;
};

class SweepScheduler {
public:
    explicit SweepScheduler(SweepSchedulerOptions options = {});

    /// Effective worker count (never 0).
    [[nodiscard]] std::size_t jobs() const noexcept { return pool_.jobs(); }

    /// Batch size a run of `count` tasks would use (resolves the auto
    /// setting; never 0).
    [[nodiscard]] std::size_t effective_batch(std::size_t count) const noexcept;

    /// Queues one task; returns its submission index. The config is
    /// materialized now (copied), so callers may reuse their local.
    std::size_t submit(core::ExperimentConfig config);

    /// Queues `count` tasks whose configs are built on the claiming
    /// worker: `make_config(i)` receives the batch-local index i in
    /// [0, count). Must be a pure function of i (called concurrently,
    /// possibly never for tasks a failed run abandons).
    std::size_t submit_generated(
        std::size_t count,
        std::function<core::ExperimentConfig(std::size_t)> make_config);

    /// Number of tasks currently queued.
    [[nodiscard]] std::size_t pending() const noexcept { return count_; }

    /// Runs every queued task; returns results in submission order and
    /// clears the queue (the scheduler is reusable). First task exception
    /// is rethrown after all workers join.
    [[nodiscard]] std::vector<core::ExperimentResult> run();

    /// Convenience one-shots mirroring TrialRunner's API.
    [[nodiscard]] std::vector<core::ExperimentResult>
    run_all(const std::vector<core::ExperimentConfig>& configs);
    [[nodiscard]] std::vector<core::ExperimentResult> run_generated(
        std::size_t count,
        const std::function<core::ExperimentConfig(std::size_t)>& make_config);

    /// Steals performed by the last run() — observability for tests and
    /// the bench footers. 0 under jobs = 1.
    [[nodiscard]] std::size_t steals() const noexcept { return steals_; }

private:
    struct Batch {
        std::size_t first = 0;
        std::size_t count = 0;
        std::function<core::ExperimentConfig(std::size_t)> make;
    };

    [[nodiscard]] core::ExperimentConfig materialize(std::size_t index) const;

    TaskPool pool_;
    std::size_t batch_;
    std::size_t count_ = 0;
    std::vector<Batch> batches_;
    std::size_t steals_ = 0;
};

/// Folds every task's metrics (and non-empty profiles) into `ctx` in
/// submission order — the deterministic sweep-level counterpart of
/// merge_trial_metrics/merge_trial_profiles.
void merge_sweep_into(obs::RunContext& ctx,
                      const std::vector<core::ExperimentResult>& results);

} // namespace routesync::parallel
