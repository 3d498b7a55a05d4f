// Figure 8 — "Simulations starting with synchronized updates, for
// different values for Tr": Tr in {2.3, 2.5, 2.8} * Tc. The paper's
// labels: at 2.3*Tc synchronization is not broken within 10^7 s; at
// 2.5*Tc it breaks after 4791 rounds; at 2.8*Tc after 300 rounds.
//
// The 3 x 3 trial grid runs through the work-stealing SweepScheduler
// (--jobs N): all trials pool into one task set, idle workers steal from
// the slow Tr values, and results are consumed in submission order, so
// the output is byte-identical for every jobs value.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "core/core.hpp"
#include "parallel/parallel.hpp"

using namespace routesync;
using namespace routesync::bench;

int main(int argc, char** argv) {
    const Options& options = parse_options(argc, argv);
    const std::size_t jobs = options.jobs;
    header("Figure 8",
           "time to break up vs Tr, synchronized start (Tc = 0.11 s)");

    const double tc = 0.11;
    const int kSeeds = 3; // break-up times are heavy-tailed; average a few
    const std::vector<double> factors{2.3, 2.5, 2.8};

    std::vector<core::ExperimentConfig> configs;
    for (const double factor : factors) {
        for (int seed = 1; seed <= kSeeds; ++seed) {
            core::ExperimentConfig cfg;
            cfg.params.n = 20;
            cfg.params.tp = sim::SimTime::seconds(121);
            cfg.params.tc = sim::SimTime::seconds(tc);
            cfg.params.tr = sim::SimTime::seconds(factor * tc);
            cfg.params.start = core::StartCondition::Synchronized;
            cfg.params.seed = static_cast<std::uint64_t>(seed * 41);
            cfg.max_time = sim::SimTime::seconds(1e7);
            cfg.stop_on_breakup_threshold = 1;
            cfg.record_rounds = seed == 1;
            configs.push_back(cfg);
        }
    }
    const auto results =
        parallel::SweepScheduler{{.jobs = jobs}}.run_all(configs);
    parallel::merge_sweep_into(opts().ctx, results);

    std::vector<double> breakup_means;
    for (std::size_t fi = 0; fi < factors.size(); ++fi) {
        const double factor = factors[fi];
        double total = 0.0;
        int capped = 0;
        for (int seed = 1; seed <= kSeeds; ++seed) {
            const auto& r =
                results[fi * static_cast<std::size_t>(kSeeds) +
                        static_cast<std::size_t>(seed - 1)];

            if (seed == 1) {
                section("cluster graph, Tr = " + std::to_string(factor) +
                        " * Tc, seed 41 (decimated)");
                std::printf("%10s %8s\n", "time_s", "largest");
                const std::size_t stride =
                    std::max<std::size_t>(1, r.rounds.size() / 60);
                for (std::size_t i = 0; i < r.rounds.size(); i += stride) {
                    std::printf("%10.0f %8d\n", r.rounds[i].end_time.sec(),
                                r.rounds[i].largest);
                }
            }
            if (r.breakup_time_sec) {
                total += *r.breakup_time_sec;
            } else {
                total += 1e7;
                ++capped;
            }
        }
        const double mean = total / kSeeds;
        std::printf("Tr = %.1f*Tc: mean time to break %.4g s over %d seeds"
                    " (%d capped at 1e7 s)\n",
                    factor, mean, kSeeds, capped);
        breakup_means.push_back(mean);
    }

    section("summary");
    std::printf("%8s %18s\n", "Tr/Tc", "mean_time_to_break_s");
    for (std::size_t i = 0; i < breakup_means.size(); ++i) {
        std::printf("%8.1f %18.4g\n", factors[i], breakup_means[i]);
    }

    check(breakup_means[0] > breakup_means[1] && breakup_means[1] > breakup_means[2],
          "time to break up falls as Tr grows");
    check(breakup_means[2] < 5e5,
          "at Tr = 2.8*Tc the cluster dissolves within hours (paper: 300 rounds)");
    check(breakup_means[0] > 10.0 * breakup_means[2],
          "at Tr = 2.3*Tc synchronization persists far longer (paper: not "
          "broken within 1e7 s)");

    return footer(sim_seconds_of(results));
}
