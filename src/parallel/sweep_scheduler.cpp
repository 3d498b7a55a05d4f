#include "parallel/sweep_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/run_context.hpp"
#include "rng/splitmix64.hpp"

namespace routesync::parallel {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept {
    // Offset the base along the SplitMix64 Weyl constant, then run one
    // splitmix output step. Distinct indices land in distinct, well-mixed
    // positions of the splitmix sequence even for base = 0.
    rng::SplitMix64 mix{base + index * 0x9e3779b97f4a7c15ULL};
    return mix();
}

SweepScheduler::SweepScheduler(SweepSchedulerOptions options)
    : pool_{TaskPoolOptions{options.jobs}}, batch_{options.batch} {}

std::size_t SweepScheduler::effective_batch(std::size_t count) const noexcept {
    if (batch_ != 0) {
        return batch_;
    }
    // Auto: 16 tasks per claim. Under multiple workers, cap the claim so
    // every worker still gets a few — stealing needs granularity to
    // rebalance the sweep's long tail.
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

    const auto run_chunk = [&](std::size_t lo, std::size_t len) {
        for (std::size_t i = lo; i < lo + len; ++i) {
            core::ExperimentConfig config = materialize(i);
            config.obs = nullptr; // a RunContext is not safe across workers
            results[i] = core::run_experiment(config);
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

obs::MetricsSnapshot
merge_trial_metrics(const std::vector<core::ExperimentResult>& results) {
    obs::MetricsSnapshot merged;
    for (const core::ExperimentResult& result : results) {
        merged.merge(result.metrics);
    }
    return merged;
}

obs::ProfileSnapshot
merge_trial_profiles(const std::vector<core::ExperimentResult>& results) {
    obs::ProfileSnapshot merged;
    for (const core::ExperimentResult& result : results) {
        merged.merge(result.profile);
    }
    return merged;
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
