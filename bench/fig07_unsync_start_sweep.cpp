// Figure 7 — "Simulations starting with unsynchronized updates, for
// different values for Tr": cluster graphs for Tr in {0.6, 1.0, 1.4} * Tc
// over up to 10^7 s. The paper's labels: synchronization after 498 rounds
// (17 hours) at 0.6*Tc and after 7796 rounds at 1.0*Tc; larger Tr takes
// longer and longer.
//
// The 3 x 5 trial grid runs through the work-stealing SweepScheduler
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
    header("Figure 7",
           "time to synchronize vs Tr, unsynchronized start (Tc = 0.11 s)");

    const double tc = 0.11;
    const int kSeeds = 5; // time-to-sync is heavy-tailed; average a few runs
    const std::vector<double> factors{0.6, 1.0, 1.4};

    std::vector<core::ExperimentConfig> configs;
    for (const double factor : factors) {
        for (int seed = 1; seed <= kSeeds; ++seed) {
            core::ExperimentConfig cfg;
            cfg.params.n = 20;
            cfg.params.tp = sim::SimTime::seconds(121);
            cfg.params.tc = sim::SimTime::seconds(tc);
            cfg.params.tr = sim::SimTime::seconds(factor * tc);
            cfg.params.seed = static_cast<std::uint64_t>(seed * 31);
            cfg.max_time = sim::SimTime::seconds(1e7);
            cfg.stop_on_full_sync = true;
            cfg.record_rounds = seed == 1;
            configs.push_back(cfg);
        }
    }
    const auto results =
        parallel::SweepScheduler{{.jobs = jobs}}.run_all(configs);
    parallel::merge_sweep_into(opts().ctx, results);

    std::vector<double> sync_means;
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
                        " * Tc, seed 31 (decimated)");
                std::printf("%10s %8s\n", "time_s", "largest");
                const std::size_t stride =
                    std::max<std::size_t>(1, r.rounds.size() / 60);
                for (std::size_t i = 0; i < r.rounds.size(); i += stride) {
                    std::printf("%10.0f %8d\n", r.rounds[i].end_time.sec(),
                                r.rounds[i].largest);
                }
            }
            if (r.full_sync_time_sec) {
                total += *r.full_sync_time_sec;
            } else {
                total += 1e7;
                ++capped;
            }
        }
        const double mean = total / kSeeds;
        std::printf("Tr = %.1f*Tc: mean time to sync %.4g s over %d seeds"
                    " (%d capped at 1e7 s)\n",
                    factor, mean, kSeeds, capped);
        sync_means.push_back(mean);
    }

    section("summary");
    std::printf("%8s %18s\n", "Tr/Tc", "mean_time_to_sync_s");
    for (std::size_t i = 0; i < sync_means.size(); ++i) {
        std::printf("%8.1f %18.4g\n", factors[i], sync_means[i]);
    }

    check(sync_means[0] < sync_means[1] && sync_means[1] < sync_means[2],
          "mean time to synchronize grows with Tr");
    check(sync_means[2] > 3.0 * sync_means[0],
          "growth is steep across the sweep (paper: 498 -> 7796 rounds and "
          "beyond)");
    check(sync_means[0] < 5e5, "at Tr = 0.6*Tc the system synchronizes quickly");

    return footer(sim_seconds_of(results));
}
