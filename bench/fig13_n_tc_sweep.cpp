// Figure 13 — the Figure 12 curves swept over N in {10, 20, 30} and
// Tc in {0.01, 0.11} seconds, with Tr expressed in units of Tc. The
// paper's takeaway: "choosing Tr at least ten times greater than Tc
// ensures that clusters of routing messages will be quickly broken up",
// across the whole parameter range.
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

markov::FJChain make_chain(int n, double tc, double tr) {
    markov::ChainParams p;
    p.n = n;
    p.tp_sec = 121.0;
    p.tc_sec = tc;
    p.tr_sec = tr;
    p.f2_rounds = markov::f2_diffusion_estimate(n, p.tp_sec, tr);
    return markov::FJChain{p};
}

/// Simulation window for the measured time-to-sync column. fig04's
/// reference point (N=20, Tc=0.11, Tr=0.1) syncs at ~5.8e4 s, so 1.5e5 s
/// covers the synchronizing regime with headroom; runs stop early the
/// instant the full cluster forms.
constexpr double kSyncWindowSec = 1.5e5;

/// One monitored simulation trial, stopped at full sync or at the end of
/// the window.
core::ExperimentResult sync_trial(int n, double tc, double tr, std::uint64_t seed) {
    core::ExperimentConfig cfg;
    cfg.params.n = n;
    cfg.params.tp = sim::SimTime::seconds(121.0);
    cfg.params.tc = sim::SimTime::seconds(tc);
    cfg.params.tr = sim::SimTime::seconds(tr);
    cfg.params.seed = seed;
    cfg.max_time = sim::SimTime::seconds(kSyncWindowSec);
    cfg.stop_on_full_sync = true;
    cfg.monitor = true;
    return core::run_experiment(cfg);
}

/// A trial's time to r >= 0.95 (SyncMonitor's default threshold), or -1
/// if not reached within the window.
double measured_time_to_sync(const core::ExperimentResult& r) {
    return r.sync.has_value() ? r.sync->time_to_sync_sec : -1.0;
}

/// The full cluster re-arms in lockstep, so r hits ~1 the moment it
/// forms: a full-sync run that never crossed the threshold is a bug.
bool full_sync_crossed(const core::ExperimentResult& r) {
    return !r.full_sync_time_sec.has_value() || measured_time_to_sync(r) >= 0.0;
}

std::string fmt_sync(double t) {
    return t >= 0.0 ? fmt_time(t) : ">window";
}

} // namespace

int main(int argc, char** argv) {
    OptionsSpec spec;
    spec.description = "Figure 13: f(N) and g(1) vs Tr/Tc over the N x Tc grid";
    static constexpr cli::FlagSpec kExtra[] = {
        cli::text("bench-out", "FILE")}; // BENCH_sweep.json path override
    spec.extra = kExtra;
    Options& options = parse_options(argc, argv, spec);
    const std::size_t jobs = options.jobs;
    header("Figure 13",
           "f(N) and g(1) vs Tr (in units of Tc) for N in {10,20,30}, "
           "Tc in {0.01, 0.11} s, Tp = 121 s");

    bool ten_tc_breaks_everything = true;
    bool breakup_harder_with_n = true;
    bool full_implies_crossing = true;
    bool any_sim_synced = false;
    bool any_sim_never = false;
    std::ostringstream json_rows;
    bool first_json_row = true;
    // Every simulated trial, in submission order, for the manifest's metrics.
    std::vector<core::ExperimentResult> trials;

    for (const double tc : {0.01, 0.11}) {
        for (const int n : {10, 20, 30}) {
            section("Tc = " + std::to_string(tc) + " s, N = " + std::to_string(n));
            std::printf("%7s %16s %16s %16s\n", "Tr/Tc", "g1_s", "fN_s",
                        "sync_sim_s");
            // Same accumulation as the old serial loop (bit-identical
            // factors); chain evaluations fan out, printing stays serial.
            std::vector<double> grid;
            for (double factor = 0.6; factor <= 8.01; factor += 0.4) {
                grid.push_back(factor);
            }
            struct Row {
                double g1, fn;
                core::ExperimentResult trial;
            };
            const std::uint64_t seed_base = options.seed_or(42);
            auto rows =
                parallel::map_index<Row>(grid.size(), jobs, [&](std::size_t i) {
                    const auto chain = make_chain(n, tc, grid[i] * tc);
                    return Row{chain.time_to_break_up_seconds(),
                               chain.time_to_synchronize_seconds(),
                               sync_trial(n, tc, grid[i] * tc, seed_base + i)};
                });
            for (std::size_t i = 0; i < grid.size(); ++i) {
                const double sync_sim = measured_time_to_sync(rows[i].trial);
                std::printf("%7.1f %16s %16s %16s\n", grid[i],
                            fmt_time(rows[i].g1).c_str(),
                            fmt_time(rows[i].fn).c_str(),
                            fmt_sync(sync_sim).c_str());
                full_implies_crossing =
                    full_implies_crossing && full_sync_crossed(rows[i].trial);
                (sync_sim >= 0.0 ? any_sim_synced : any_sim_never) = true;
                json_rows << (first_json_row ? "" : ",\n")
                          << "      {\"n\": " << n << ", \"tc_sec\": " << tc
                          << ", \"tr_over_tc\": " << grid[i]
                          << ", \"time_to_sync_sec\": " << sync_sim << "}";
                first_json_row = false;
                trials.push_back(std::move(rows[i].trial));
            }
            const double g_at_10tc =
                make_chain(n, tc, 10.0 * tc).time_to_break_up_seconds();
            std::printf("g(1) at Tr = 10*Tc: %s\n", fmt_time(g_at_10tc).c_str());
            if (!(g_at_10tc < 2e5)) {
                ten_tc_breaks_everything = false;
            }
        }
        // Larger N holds clusters together longer at the same Tr/Tc.
        const double g10 = make_chain(10, tc, 3.0 * tc).time_to_break_up_seconds();
        const double g30 = make_chain(30, tc, 3.0 * tc).time_to_break_up_seconds();
        if (!(g30 > g10)) {
            breakup_harder_with_n = false;
        }
    }

    parallel::merge_sweep_into(options.ctx, trials);

    check(ten_tc_breaks_everything,
          "Tr >= 10*Tc breaks clusters up quickly for every (N, Tc) in the sweep "
          "(the paper's rule of thumb)");
    check(breakup_harder_with_n,
          "at fixed Tr/Tc, larger networks hold synchronization longer");
    check(full_implies_crossing,
          "every simulated run that reached full sync also crossed r >= 0.95 "
          "(monitor agrees with the cluster tracker)");
    check(any_sim_synced && any_sim_never,
          "simulated time-to-sync spans both regimes: reached at small Tr/Tc, "
          "not reached at large");

    {
        std::ostringstream out;
        out << "{\n    \"window_sec\": " << kSyncWindowSec
            << ",\n    \"threshold\": 0.95,\n    \"rows\": [\n"
            << json_rows.str() << "\n    ]\n  }";
        const std::string path = options.args.text("bench-out", "BENCH_sweep.json");
        write_json_section(path, "fig13_time_to_sync", out.str());
        if (FILE* f = chatter()) {
            std::fprintf(f, "\nwrote section \"fig13_time_to_sync\" of %s\n",
                         path.c_str());
        }
    }

    return footer();
}
