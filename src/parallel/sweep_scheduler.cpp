#include "parallel/sweep_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/run_context.hpp"
#include "parallel/trial_runner.hpp"

namespace routesync::parallel {

SweepScheduler::SweepScheduler(SweepSchedulerOptions options)
    : pool_{TaskPoolOptions{options.jobs}}, batch_{options.batch} {}

std::size_t SweepScheduler::effective_batch(std::size_t count) const noexcept {
    if (batch_ != 0) {
        return batch_;
    }
    // Auto: 16 lanes per kernel. Lane batching is throughput-neutral at
    // fig13 sizes (BM_PMKernel_Lanes in bench/perf_microbench), so this
    // mostly sets the claim size. Under multiple workers, cap the chunk
    // so every worker still gets a few claims — stealing needs
    // granularity to rebalance the sweep's long tail.
    constexpr std::size_t kPreferred = 16;
    if (pool_.jobs() <= 1) {
        return kPreferred;
    }
    const std::size_t per_worker = count / (pool_.jobs() * 2);
    const std::size_t cap = per_worker > 1 ? per_worker : 1;
    return cap < kPreferred ? cap : kPreferred;
}

std::size_t SweepScheduler::submit(core::ExperimentConfig config) {
    const std::size_t index = count_;
    batches_.push_back(Batch{
        index, 1,
        [config = std::move(config)](std::size_t) { return config; }});
    ++count_;
    return index;
}

std::size_t SweepScheduler::submit_generated(
    std::size_t count,
    std::function<core::ExperimentConfig(std::size_t)> make_config) {
    const std::size_t index = count_;
    if (count == 0) {
        return index;
    }
    batches_.push_back(Batch{index, count, std::move(make_config)});
    count_ += count;
    return index;
}

core::ExperimentConfig SweepScheduler::materialize(std::size_t index) const {
    // Find the batch containing `index`: last batch with first <= index.
    const auto it = std::upper_bound(
        batches_.begin(), batches_.end(), index,
        [](std::size_t i, const Batch& b) { return i < b.first; });
    assert(it != batches_.begin());
    const Batch& batch = *std::prev(it);
    assert(index >= batch.first && index < batch.first + batch.count);
    return batch.make(index - batch.first);
}

std::vector<core::ExperimentResult> SweepScheduler::run() {
    const std::size_t count = count_;
    std::vector<core::ExperimentResult> results(count);

    // A chunk of tasks runs as the lanes of one kernel. Every lane is
    // bit-identical to a run alone, so chunk boundaries (and therefore
    // --batch) never show in the results.
    const auto run_chunk = [&](std::size_t lo, std::size_t len) {
        std::vector<core::ExperimentConfig> configs;
        configs.reserve(len);
        for (std::size_t i = lo; i < lo + len; ++i) {
            configs.push_back(materialize(i));
            // A RunContext is not safe across workers.
            configs.back().obs = nullptr;
        }
        std::vector<core::ExperimentResult> chunk =
            core::run_experiment_batch(configs);
        for (std::size_t i = 0; i < len; ++i) {
            results[lo + i] = std::move(chunk[i]);
        }
    };

    // The pool clears our queue even if a chunk threw: the surviving
    // tasks already ran (independent experiments), so a rethrowing run()
    // must not leave them queued for a retry.
    struct ClearQueue {
        SweepScheduler* self;
        ~ClearQueue() {
            self->batches_.clear();
            self->count_ = 0;
        }
    } clear_queue{this};

    steals_ = 0;
    steals_ = pool_.run(count, effective_batch(count), run_chunk);
    return results;
}

std::vector<core::ExperimentResult>
SweepScheduler::run_all(const std::vector<core::ExperimentConfig>& configs) {
    for (const core::ExperimentConfig& config : configs) {
        (void)submit(config);
    }
    return run();
}

std::vector<core::ExperimentResult> SweepScheduler::run_generated(
    std::size_t count,
    const std::function<core::ExperimentConfig(std::size_t)>& make_config) {
    (void)submit_generated(count, make_config);
    return run();
}

void merge_sweep_into(obs::RunContext& ctx,
                      const std::vector<core::ExperimentResult>& results) {
    ctx.merge_metrics(merge_trial_metrics(results));
    const obs::ProfileSnapshot profiles = merge_trial_profiles(results);
    if (!profiles.empty()) {
        ctx.merge_profile(profiles);
    }
}

} // namespace routesync::parallel
