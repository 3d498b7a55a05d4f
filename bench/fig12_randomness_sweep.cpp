// Figure 12 — "Expected time to go from cluster size 1 to cluster size N,
// and vice versa, as a function of Tr": the solid line is g(1) (time to
// unsynchronize), the dashed line f(N) with the calibrated f(2), and the
// dotted line f(N) with f(2) = 0. 'x' marks are simulations from an
// unsynchronized start, '+' marks from a synchronized start. Log-scale y;
// the low / moderate / high randomization regions.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "core/core.hpp"
#include "markov/markov.hpp"
#include "parallel/parallel.hpp"

using namespace routesync;
using namespace routesync::bench;

namespace {

core::ExperimentConfig sync_time_config(double tr, std::uint64_t seed) {
    core::ExperimentConfig cfg;
    cfg.params.n = 20;
    cfg.params.tp = sim::SimTime::seconds(121);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.tr = sim::SimTime::seconds(tr);
    cfg.params.seed = seed;
    cfg.max_time = sim::SimTime::seconds(1e7);
    cfg.stop_on_full_sync = true;
    return cfg;
}

core::ExperimentConfig breakup_time_config(double tr, std::uint64_t seed) {
    core::ExperimentConfig cfg;
    cfg.params.n = 20;
    cfg.params.tp = sim::SimTime::seconds(121);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.tr = sim::SimTime::seconds(tr);
    cfg.params.start = core::StartCondition::Synchronized;
    cfg.params.seed = seed;
    cfg.max_time = sim::SimTime::seconds(1e7);
    cfg.stop_on_breakup_threshold = 1;
    return cfg;
}

} // namespace

int main(int argc, char** argv) {
    const Options& options = parse_options(argc, argv);
    const std::size_t jobs = options.jobs;
    header("Figure 12",
           "f(N) and g(1) in seconds vs Tr (N=20, Tp=121 s, Tc=0.11 s); "
           "f(2) from the diffusion estimate, plus the f(2)=0 variant");

    const double tc = 0.11;
    section("series: Tr/Tc vs g(1)_s (solid), f(N)_s (dashed), f(N)|f2=0 (dotted)");
    std::printf("%7s %16s %16s %16s\n", "Tr/Tc", "g1_s", "fN_s", "fN_f2zero_s");
    // Materialize the grid with the same accumulation the serial loop
    // used (so the factor doubles are bit-identical), evaluate the chain
    // at every point in parallel, then print/scan serially.
    std::vector<double> grid;
    for (double factor = 0.1; factor <= 4.51; factor += 0.1) {
        grid.push_back(factor);
    }
    struct Row {
        double g1, fn, fn0;
    };
    const auto rows = parallel::map_index<Row>(grid.size(), jobs, [&](std::size_t i) {
        const double tr = grid[i] * tc;
        markov::ChainParams p;
        p.n = 20;
        p.tp_sec = 121.0;
        p.tc_sec = tc;
        p.tr_sec = tr;
        p.f2_rounds = markov::f2_diffusion_estimate(p.n, p.tp_sec, tr);
        const markov::FJChain chain{p};
        markov::ChainParams p0 = p;
        p0.f2_rounds = 0.0;
        const markov::FJChain chain0{p0};
        return Row{chain.time_to_break_up_seconds(),
                   chain.time_to_synchronize_seconds(),
                   chain0.time_to_synchronize_seconds()};
    });
    double crossover = -1.0;
    double prev_diff = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto& [g1, fn, fn0] = rows[i];
        std::printf("%7.2f %16s %16s %16s\n", grid[i], fmt_time(g1).c_str(),
                    fmt_time(fn).c_str(), fmt_time(fn0).c_str());

        const double diff = (std::isinf(fn) ? 1e18 : fn) - (std::isinf(g1) ? 1e18 : g1);
        if (crossover < 0 && prev_diff < 0 && diff >= 0) {
            crossover = grid[i];
        }
        prev_diff = diff;
    }
    std::printf("f(N)/g(1) crossover near Tr = %.2f * Tc (the 'moderate' region)\n",
                crossover);

    section("simulation marks ('x' = unsync start, '+' = sync start)");
    const std::vector<core::ExperimentConfig> mark_configs{
        sync_time_config(0.6 * tc, 11), sync_time_config(1.0 * tc, 11),
        breakup_time_config(2.5 * tc, 13), breakup_time_config(2.8 * tc, 13)};
    const auto marks =
        parallel::SweepScheduler{{.jobs = jobs}}.run_all(mark_configs);
    parallel::merge_sweep_into(opts().ctx, marks);
    std::printf("x  Tr=%.2f*Tc  time_to_sync  = %.4g s\n", 0.6,
                marks[0].full_sync_time_sec.value_or(1e7));
    std::printf("x  Tr=%.2f*Tc  time_to_sync  = %.4g s\n", 1.0,
                marks[1].full_sync_time_sec.value_or(1e7));
    std::printf("+  Tr=%.2f*Tc  time_to_break = %.4g s\n", 2.5,
                marks[2].breakup_time_sec.value_or(1e7));
    std::printf("+  Tr=%.2f*Tc  time_to_break = %.4g s\n", 2.8,
                marks[3].breakup_time_sec.value_or(1e7));

    // Shape checks: f grows with Tr, g falls with Tr, and the curves cross.
    auto fn_at = [&](double factor) {
        markov::ChainParams p;
        p.n = 20;
        p.tp_sec = 121.0;
        p.tc_sec = tc;
        p.tr_sec = factor * tc;
        p.f2_rounds = markov::f2_diffusion_estimate(p.n, p.tp_sec, p.tr_sec);
        return markov::FJChain{p}.time_to_synchronize_seconds();
    };
    auto g1_at = [&](double factor) {
        markov::ChainParams p;
        p.n = 20;
        p.tp_sec = 121.0;
        p.tc_sec = tc;
        p.tr_sec = factor * tc;
        p.f2_rounds = 19.0;
        return markov::FJChain{p}.time_to_break_up_seconds();
    };
    check(fn_at(0.6) < fn_at(1.0) && fn_at(1.0) < fn_at(1.8),
          "f(N) grows (exponentially) with Tr in the low/moderate region");
    check(g1_at(1.0) > g1_at(2.0) && g1_at(2.0) > g1_at(4.0),
          "g(1) falls with Tr");
    check(crossover > 0.5 && crossover < 4.0,
          "the moderate region (curve crossover) lies inside the plot");
    check(fn_at(0.6) < 1e5 && g1_at(0.6) > 1e9,
          "low randomization: quick to synchronize, ~never unsynchronizes");
    check(g1_at(4.0) < 1e5, "high randomization: clusters dissolve quickly");

    return footer(sim_seconds_of(marks));
}
