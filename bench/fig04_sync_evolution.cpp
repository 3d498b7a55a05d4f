// Figure 4 — "A simulation showing synchronized routing messages":
// N = 20 routers, Tp = 121 s, Tc = 0.11 s, Tr = 0.1 s, initially
// unsynchronized. Each transmitted routing message is plotted as
// (time, time mod (Tp + Tc)); the jittery horizontal lines of lone
// routers merge into the steep line of the growing cluster until all 20
// transmit in lockstep.
#include <cstdio>
#include <fstream>

#include "bench/common.hpp"
#include "core/core.hpp"
#include "core/trace_replay.hpp"

using namespace routesync;
using namespace routesync::bench;

int main(int argc, char** argv) {
    OptionsSpec spec;
    spec.description = "Figure 4: time-offset of every routing message";
    // --clusters-out FILE: the live cluster-size series ("time size" per
    // line) — the reference routesync trace replay-check --expect diffs.
    static constexpr cli::FlagSpec kExtra[] = {
        cli::text("clusters-out", "FILE", /*non_empty=*/true), kTraceFlag,
        kSampleEveryFlag, kMonitorFlag};
    spec.extra = kExtra;
    Options& options = parse_options(argc, argv, spec);
    header("Figure 4",
           "time-offset of every routing message; unsynchronized start, N=20, "
           "Tp=121 s, Tc=0.11 s, Tr=0.1 s");

    core::ExperimentConfig cfg;
    cfg.params.n = 20;
    cfg.params.tp = sim::SimTime::seconds(121);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.tr = sim::SimTime::seconds(0.1);
    cfg.params.seed = options.seed_or(42);
    cfg.max_time = sim::SimTime::seconds(1e5);
    cfg.transmit_stride = 7; // ~2400 of ~16500 points, enough to see the lines
    cfg.record_rounds = true;
    cfg.obs = &options.ctx; // timer/transmit/cluster events land in --trace
    cfg.sample_every = options.sample_every;
    cfg.monitor = options.monitor;
    if (options.sample_every > 0.0) {
        options.ctx.manifest().set_config("sample_every_sec", options.sample_every);
    }
    if (options.monitor) {
        options.ctx.manifest().set_config("monitor", true);
        options.ctx.manifest().set_config("sync_threshold", cfg.sync_threshold);
        options.ctx.manifest().set_config("sync_hysteresis", cfg.sync_hysteresis);
    }
    options.ctx.manifest().seeds.assign(1, cfg.params.seed);
    options.ctx.manifest().set_config("n", cfg.params.n);
    options.ctx.manifest().set_config("tp_sec", cfg.params.tp.sec());
    options.ctx.manifest().set_config("tc_sec", cfg.params.tc.sec());
    options.ctx.manifest().set_config("tr_sec", cfg.params.tr.sec());
    const auto r = core::run_experiment(cfg);
    options.sim_seconds = r.end_time_sec;

    if (const std::string path = options.args.text("clusters-out"); !path.empty()) {
        // first_hit_up[s] is exactly the series the live ClusterTracker's
        // on_size_first_reached callback produced (groups grow one member
        // at a time, so sizes are first reached in increasing order).
        std::vector<core::ClusterEvent> series;
        for (int s = 1; s <= cfg.params.n; ++s) {
            const auto& t = r.first_hit_up[static_cast<std::size_t>(s)];
            if (t.has_value()) {
                series.push_back(
                    core::ClusterEvent{sim::SimTime::seconds(*t), s});
            }
        }
        std::ofstream f{path};
        if (!f) {
            std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
            return 1;
        }
        f << core::format_cluster_series(series);
    }

    section("series: time (s) vs node vs offset = time mod (Tp+Tc) (s)");
    std::printf("%10s %5s %10s\n", "time_s", "node", "offset_s");
    for (const auto& t : r.transmits) {
        std::printf("%10.1f %5d %10.3f\n", t.time_sec, t.node, t.offset_sec);
    }

    section("summary");
    std::printf("rounds simulated        : %llu\n",
                static_cast<unsigned long long>(r.rounds_closed));
    std::printf("routing messages sent   : %llu\n",
                static_cast<unsigned long long>(r.total_transmissions));
    std::printf("full synchronization at : %s s (paper's run: 826 rounds ~ 1e5 s)\n",
                r.full_sync_time_sec ? fmt_time(*r.full_sync_time_sec).c_str()
                                     : "not reached");

    if (r.sync.has_value()) {
        section("synchronization observatory (--monitor)");
        std::printf("order parameter r(end)  : %.6f (max %.6f)\n",
                    r.sync->r_last, r.sync->r_max);
        std::printf("time to sync (r >= %.2f): %s s after %llu transitions\n",
                    cfg.sync_threshold,
                    r.sync->time_to_sync_sec >= 0.0
                        ? fmt_time(r.sync->time_to_sync_sec).c_str()
                        : "never",
                    static_cast<unsigned long long>(r.sync->transitions));
        std::printf("cluster entropy (last)  : %.6f, largest fraction %.3f\n",
                    r.sync->entropy_last, r.sync->largest_fraction_last);
        std::printf("coupling graph          : %zu edges, total weight %llu\n",
                    r.sync_coupling.edge_count(),
                    static_cast<unsigned long long>(
                        r.sync_coupling.total_weight()));
        check(r.sync_coupling.total_weight() == r.sync->rearms,
              "coupling edge weights account for every observed re-arm");
    }

    check(r.full_sync_time_sec.has_value(),
          "initially-unsynchronized system reaches full synchronization");
    if (r.full_sync_time_sec) {
        check(*r.full_sync_time_sec < 1e5,
              "synchronization completes within the figure's 1e5 s window");
    }
    // After sync, every remaining round stays fully clustered.
    bool stays = true;
    bool seen_sync = false;
    for (const auto& round : r.rounds) {
        if (round.largest == 20) {
            seen_sync = true;
        } else if (seen_sync) {
            stays = false;
        }
    }
    check(stays, "once formed, the N=20 cluster persists (Tr < breakup threshold)");

    return footer();
}
