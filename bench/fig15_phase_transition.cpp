// Figure 15 — "The fraction of time unsynchronized, as a function of the
// number of nodes" (Tp=121 s, Tc=0.11 s, Tr=0.3 s): the headline result
// that "the addition of a single router will convert a completely
// unsynchronized traffic stream into a completely synchronized one".
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/core.hpp"
#include "markov/markov.hpp"
#include "parallel/parallel.hpp"

using namespace routesync;
using namespace routesync::bench;

namespace {

double fraction_at(int n) {
    markov::ChainParams p;
    p.n = n;
    p.tp_sec = 121.0;
    p.tc_sec = 0.11;
    p.tr_sec = 0.3;
    p.f2_rounds = markov::f2_diffusion_estimate(n, p.tp_sec, p.tr_sec);
    return markov::FJChain{p}.fraction_unsynchronized();
}

/// Simulation window for the measured time-to-sync column (same figure
/// parameters; a monitored run per N, stopping early at full sync).
constexpr double kSyncWindowSec = 1.5e5;

/// Detector level for the measured column. At Tr = 0.3 s the Markov
/// chain puts the first full synchronization >= 1e9 s out for every
/// plotted N (see fig13's fN column at Tr/Tc ~ 2.7), so the honest
/// measurement here is ">window" across the board: the figure's
/// "predominately synchronized" regime is a statement about the
/// stationary fraction, not about a transition any finite run observes.
/// The column demonstrates exactly that, and the shape check below holds
/// the simulation to the prediction.
constexpr double kSyncThreshold = 0.95;

/// One monitored trial at this figure's parameters, stopped at full sync
/// or at the end of the window.
core::ExperimentResult sync_trial(int n, std::uint64_t seed) {
    core::ExperimentConfig cfg;
    cfg.params.n = n;
    cfg.params.tp = sim::SimTime::seconds(121.0);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.tr = sim::SimTime::seconds(0.3);
    cfg.params.seed = seed;
    cfg.max_time = sim::SimTime::seconds(kSyncWindowSec);
    cfg.stop_on_full_sync = true;
    cfg.monitor = true;
    cfg.sync_threshold = kSyncThreshold;
    return core::run_experiment(cfg);
}

/// A trial's time to r >= kSyncThreshold, or -1 if not reached within
/// the window.
double measured_time_to_sync(const core::ExperimentResult& r) {
    return r.sync.has_value() ? r.sync->time_to_sync_sec : -1.0;
}

} // namespace

int main(int argc, char** argv) {
    OptionsSpec spec;
    spec.description = "Figure 15: fraction of time unsynchronized vs N";
    static constexpr cli::FlagSpec kExtra[] = {
        cli::text("bench-out", "FILE")}; // BENCH_sweep.json path override
    spec.extra = kExtra;
    Options& options = parse_options(argc, argv, spec);
    const std::size_t jobs = options.jobs;
    header("Figure 15",
           "fraction of time unsynchronized vs N (Tp=121 s, Tc=0.11 s, Tr=0.3 s)");

    section("series: N vs fraction unsynchronized vs simulated time-to-sync");
    std::printf("%5s %12s %14s\n", "N", "fraction", "sync_sim_s");
    int last_unsync = -1;
    int first_sync = -1;
    const int kFromN = 5;
    const int kToN = 32;
    struct Row {
        double fraction;
        core::ExperimentResult trial;
    };
    const std::uint64_t seed_base = options.seed_or(42);
    auto rows = parallel::map_index<Row>(
        static_cast<std::size_t>(kToN - kFromN + 1), jobs, [&](std::size_t i) {
            const int n = kFromN + static_cast<int>(i);
            return Row{fraction_at(n), sync_trial(n, seed_base + i)};
        });
    int first_sim_sync = -1;
    int last_sim_never = -1;
    std::ostringstream json_rows;
    // Every simulated trial, in submission order, for the manifest's metrics.
    std::vector<core::ExperimentResult> trials;
    for (int n = kFromN; n <= kToN; ++n) {
        Row& row = rows[static_cast<std::size_t>(n - kFromN)];
        const double frac = row.fraction;
        const double sync_sim = measured_time_to_sync(row.trial);
        std::printf("%5d %12.6f %14s\n", n, frac,
                    sync_sim >= 0.0 ? fmt_time(sync_sim).c_str() : ">window");
        if (frac > 0.9) {
            last_unsync = n;
        }
        if (first_sync < 0 && frac < 0.1) {
            first_sync = n;
        }
        if (first_sim_sync < 0 && sync_sim >= 0.0) {
            first_sim_sync = n;
        }
        if (sync_sim < 0.0) {
            last_sim_never = n;
        }
        json_rows << (n > kFromN ? ",\n" : "")
                  << "      {\"n\": " << n << ", \"fraction_unsync\": " << frac
                  << ", \"time_to_sync_sec\": " << sync_sim << "}";
        trials.push_back(std::move(row.trial));
    }
    parallel::merge_sweep_into(options.ctx, trials);

    markov::ChainParams p;
    p.n = 20;
    p.tp_sec = 121.0;
    p.tc_sec = 0.11;
    p.tr_sec = 0.3;
    p.f2_rounds = markov::f2_diffusion_estimate(25, p.tp_sec, p.tr_sec);
    const int n_star = markov::critical_n(p, 100);

    section("summary");
    std::printf("last predominately-unsynchronized N : %d\n", last_unsync);
    std::printf("first predominately-synchronized N  : %d\n", first_sync);
    std::printf("critical N (bisected at 50%%)        : %d\n", n_star);
    std::printf("first N syncing within %g s      : %s\n", kSyncWindowSec,
                first_sim_sync > 0 ? std::to_string(first_sim_sync).c_str()
                                   : "none (Markov: first sync >= 1e9 s)");

    {
        std::ostringstream out;
        out << "{\n    \"window_sec\": " << kSyncWindowSec
            << ",\n    \"threshold\": " << kSyncThreshold << ",\n    \"first_sim_sync_n\": "
            << first_sim_sync << ",\n    \"rows\": [\n" << json_rows.str()
            << "\n    ]\n  }";
        const std::string path = options.args.text("bench-out", "BENCH_sweep.json");
        write_json_section(path, "fig15_time_to_sync", out.str());
        if (FILE* f = chatter()) {
            std::fprintf(f, "wrote section \"fig15_time_to_sync\" of %s\n",
                         path.c_str());
        }
    }

    check(last_unsync > 0 && first_sync > 0,
          "both regimes appear within the plotted range");
    check(first_sim_sync < 0 && last_sim_never == kToN,
          "no plotted N reaches r >= 0.95 within the 1.5e5 s window, matching "
          "the Markov prediction of first sync >= 1e9 s at Tr = 0.3 s");
    check(first_sync - last_unsync <= 3,
          "the flip happens within a couple of routers ('the addition of a "
          "single router')");
    check(last_unsync >= 15 && first_sync <= 32,
          "the transition falls near the paper's N = 5..25 axis");

    return footer();
}
