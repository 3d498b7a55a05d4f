#include "parallel/sweep_scheduler.hpp"

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
    : pool_{options.jobs}, batch_{options.batch} {}

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

std::vector<core::ExperimentResult>
SweepScheduler::run_all(const std::vector<core::ExperimentConfig>& configs) {
    return run_generated(configs.size(),
                         [&configs](std::size_t i) { return configs[i]; });
}

std::vector<core::ExperimentResult> SweepScheduler::run_generated(
    std::size_t count,
    const std::function<core::ExperimentConfig(std::size_t)>& make_config) {
    std::vector<core::ExperimentResult> results(count);
    const auto run_chunk = [&](std::size_t lo, std::size_t len) {
        for (std::size_t i = lo; i < lo + len; ++i) {
            core::ExperimentConfig config = make_config(i);
            config.obs = nullptr; // a RunContext is not safe across workers
            results[i] = core::run_experiment(config);
        }
    };
    steals_ = 0;
    steals_ = pool_.run(count, effective_batch(count), run_chunk);
    return results;
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
