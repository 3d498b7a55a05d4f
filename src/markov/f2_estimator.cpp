#include "markov/f2_estimator.hpp"

#include <stdexcept>

#include "core/experiment.hpp"
#include "parallel/sweep_scheduler.hpp"

namespace routesync::markov {

F2Estimate estimate_f2(const ChainParams& params, int reps, std::uint64_t seed,
                       double max_rounds_per_rep, std::size_t jobs) {
    if (reps < 1) {
        throw std::invalid_argument{"estimate_f2: need at least one repetition"};
    }
    const double round_sec = params.tp_sec + params.tc_sec;

    parallel::SweepScheduler scheduler{{.jobs = jobs}};
    const auto results = scheduler.run_generated(
        static_cast<std::size_t>(reps), [&](std::size_t rep) {
            core::ExperimentConfig config;
            config.params.n = params.n;
            config.params.tp = sim::SimTime::seconds(params.tp_sec);
            config.params.tr = sim::SimTime::seconds(params.tr_sec);
            config.params.tc = sim::SimTime::seconds(params.tc_sec);
            config.params.start = core::StartCondition::Unsynchronized;
            config.params.seed = seed + static_cast<std::uint64_t>(rep);
            config.max_time = sim::SimTime::seconds(max_rounds_per_rep * round_sec);
            config.stop_on_cluster_size = 2;
            return config;
        });

    // Accumulate in rep order: the sum (and thus the estimate) is exactly
    // the serial one, bit for bit, whatever jobs was.
    F2Estimate out;
    double total_rounds = 0.0;
    for (const auto& result : results) {
        const auto& hit = result.first_hit_up[2];
        if (hit.has_value()) {
            total_rounds += *hit / round_sec;
            ++out.completed;
        } else {
            total_rounds += max_rounds_per_rep;
            ++out.censored;
        }
    }
    out.mean_rounds = total_rounds / static_cast<double>(reps);
    out.mean_seconds = out.mean_rounds * round_sec;
    return out;
}

} // namespace routesync::markov
