// Figure 5 — "An enlargement of the simulation above": a close-up showing
// two routers forming a cluster (both reset timers at the same instant
// t + 2*Tc) and later breaking apart again. Each 'x' marks a timer
// expiration, each 'o' the timer being reset — the paper's notation.
//
// Part 1 replays the two-router narrative deterministically; part 2 zooms
// into the Figure 4 run and prints the cluster events in a 3000 s window.
#include <cstdio>
#include <memory>

#include "bench/common.hpp"
#include "core/core.hpp"

using namespace routesync;
using namespace routesync::bench;

int main(int argc, char** argv) {
    parse_options(argc, argv);
    header("Figure 5", "close-up of cluster formation and break-up");

    double sim_seconds = 0.0;
    section("part 1: two routers, deterministic replay of the paper's narrative");
    {
        sim::Engine engine;
        core::ModelParams p;
        p.n = 2;
        p.tp = sim::SimTime::seconds(121);
        p.tc = sim::SimTime::seconds(0.11);
        p.tr = sim::SimTime::seconds(0.1);
        p.seed = 7;
        // Node B's timer expires 50 ms into node A's busy period.
        p.initial_phases = {10.0, 10.05};
        core::PeriodicMessagesModel model{engine, p};

        std::printf("%8s %6s %12s\n", "mark", "node", "time_s");
        model.on_transmit = [](int node, sim::SimTime t) {
            std::printf("%8s %6d %12.4f\n", "x", node, t.sec());
        };
        model.on_timer_set = [](int node, sim::SimTime t) {
            std::printf("%8s %6d %12.4f\n", "o", node, t.sec());
        };
        engine.run_until(sim::SimTime::seconds(1000));
        sim_seconds += engine.now().sec();

        const auto a = model.node(0);
        const auto b = model.node(1);
        std::printf("node A next expiry: %.4f, node B next expiry: %.4f\n",
                    a.next_expiry.sec(), b.next_expiry.sec());
        check(std::abs(a.next_expiry.sec() - b.next_expiry.sec()) < 2 * 0.1,
              "after overlapping busy periods, both nodes' timers track together "
              "(cluster: both reset at t + 2*Tc)");
    }

    section("part 2: cluster events in a window of the Figure 4 run");
    {
        core::ExperimentConfig cfg;
        cfg.params.n = 20;
        cfg.params.tp = sim::SimTime::seconds(121);
        cfg.params.tc = sim::SimTime::seconds(0.11);
        cfg.params.tr = sim::SimTime::seconds(0.1);
        cfg.params.seed = 42;
        cfg.max_time = sim::SimTime::seconds(40000);
        cfg.record_cluster_events = true;
        const auto r = core::run_experiment(cfg);
        sim_seconds += r.end_time_sec;

        std::printf("%12s %6s   (timer-set events, 35.5-38.5 ks window)\n", "time_s",
                    "size");
        int pairs = 0;
        int singles = 0;
        for (const auto& e : r.cluster_events) {
            const double t = e.time.sec();
            if (t >= 35500 && t <= 38500) {
                std::printf("%12.3f %6d\n", t, e.size);
                (e.size >= 2 ? pairs : singles) += 1;
            }
        }
        std::printf("window: %d multi-node cluster events, %d lone timer sets\n",
                    pairs, singles);
        check(pairs > 0, "small clusters form inside the window");
        check(singles > 0,
              "lone routers coexist with clusters (partial synchronization)");
    }

    return footer(sim_seconds);
}
