// Figure 11 — "The expected time to reach cluster size i, starting from
// cluster size N, for Tr = 0.3 seconds": the chain's (Tp + Tc) * g(i)
// against twenty simulations from a synchronized start.
//
// The twenty trials pool in the work-stealing SweepScheduler (--jobs N);
// stats accumulate over results in seed order, so output is
// byte-identical for every jobs value.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "core/core.hpp"
#include "markov/markov.hpp"
#include "parallel/parallel.hpp"
#include "stats/stats.hpp"

using namespace routesync;
using namespace routesync::bench;

int main(int argc, char** argv) {
    const Options& options = parse_options(argc, argv);
    const std::size_t jobs = options.jobs;
    header("Figure 11",
           "time to first come down to each cluster size from synchronized "
           "start (N=20, Tp=121 s, Tc=0.11 s, Tr=0.3 s)");

    markov::ChainParams cp;
    cp.n = 20;
    cp.tp_sec = 121.0;
    cp.tr_sec = 0.3;
    cp.tc_sec = 0.11;
    cp.f2_rounds = 19.0; // irrelevant for g (Eq. 6 does not involve f(2))
    const markov::FJChain chain{cp};
    const auto g = chain.g_rounds();

    const int kSims = 20;
    std::vector<stats::RunningStats> hit(21);
    const auto results = parallel::SweepScheduler{{.jobs = jobs}}.run_generated(
        static_cast<std::size_t>(kSims), [](std::size_t i) {
            core::ExperimentConfig cfg;
            cfg.params.n = 20;
            cfg.params.tp = sim::SimTime::seconds(121);
            cfg.params.tc = sim::SimTime::seconds(0.11);
            cfg.params.tr = sim::SimTime::seconds(0.3);
            cfg.params.start = core::StartCondition::Synchronized;
            cfg.params.seed = static_cast<std::uint64_t>(i + 101); // 101..120
            cfg.max_time = sim::SimTime::seconds(3e6);
            cfg.stop_on_breakup_threshold = 1;
            return cfg;
        });
    parallel::merge_sweep_into(opts().ctx, results);
    for (const auto& r : results) {
        for (int s = 1; s <= 19; ++s) {
            if (r.first_hit_down[static_cast<std::size_t>(s)]) {
                hit[static_cast<std::size_t>(s)].add(
                    *r.first_hit_down[static_cast<std::size_t>(s)]);
            }
        }
    }

    section("series: cluster size vs time (s) — analysis and simulation mean");
    std::printf("%5s %14s %14s %10s\n", "size", "analysis_s", "sim_mean_s", "sims");
    for (int s = 19; s >= 1; --s) {
        const auto idx = static_cast<std::size_t>(s);
        std::printf("%5d %14s %14.5g %10llu\n", s,
                    fmt_time(g[idx] * chain.round_seconds()).c_str(),
                    hit[idx].mean(),
                    static_cast<unsigned long long>(hit[idx].count()));
    }

    const double analysis_full = g[1] * chain.round_seconds();
    const double sim_full = hit[1].mean();
    section("summary");
    std::printf("analysis g(1)    : %.0f s\n", analysis_full);
    std::printf("simulation mean  : %.0f s (over %llu runs)\n", sim_full,
                static_cast<unsigned long long>(hit[1].count()));
    std::printf("ratio            : %.2f (paper: 'two or three times')\n",
                analysis_full / sim_full);

    check(hit[1].count() == kSims, "every simulation fully unsynchronized");
    const double ratio = analysis_full / sim_full;
    check(ratio > 1.0 && ratio < 10.0,
          "analysis over-predicts by a small factor (paper: 2-3x)");
    bool monotone = true;
    for (int s = 2; s <= 19; ++s) {
        if (hit[static_cast<std::size_t>(s)].mean() >
            hit[static_cast<std::size_t>(s - 1)].mean() + 1e-9) {
            monotone = false;
        }
    }
    check(monotone, "simulated first-hit-down times grow as the target shrinks");

    return footer(sim_seconds_of(results));
}
