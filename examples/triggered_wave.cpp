// triggered_wave: a topology change synchronizes an entire network in one
// round — and only sufficient jitter un-does it.
//
//   $ ./examples/triggered_wave
//
// The paper's Section 3: protocols with triggered updates (RIP, IGRP,
// DECnet DNA IV) flood a wave of immediate updates after a failure. Every
// router processes the wave and re-arms its periodic timer at the same
// instant — instant synchronization, no matter how unsynchronized the
// network was. With a small random component the network then STAYS
// synchronized; with a large one it relaxes back.
#include <memory>

#include "bench/common.hpp"
#include "core/core.hpp"

using namespace routesync;

namespace {

void run(const char* label, sim::SimTime tr) {
    sim::Engine engine;
    core::ModelParams params;
    params.n = 20;
    params.tp = sim::SimTime::seconds(121);
    params.tc = sim::SimTime::seconds(0.11);
    params.tr = tr;
    params.seed = 99;
    core::PeriodicMessagesModel model{engine, params};
    core::ClusterTracker tracker{params.n, model.round_length()};
    tracker.record_rounds(true);
    model.on_timer_set = [&](int node, sim::SimTime t) {
        tracker.on_timer_set(node, t);
    };

    // Let the unsynchronized steady state establish itself, then fail a
    // link at t = 10000 s: every router emits a triggered update.
    engine.schedule_at(sim::SimTime::seconds(10000),
                       [&] { model.trigger_update_all(); });
    engine.run_until(sim::SimTime::seconds(200000));
    tracker.finish();

    // How long did the triggered synchronization last? (The network was
    // unsynchronized before the wave, so look for the first small round
    // strictly after the wave.)
    const auto sync_at = tracker.full_sync_time();
    bench::print("%-28s", label);
    if (!sync_at) {
        bench::print(" wave did not fully synchronize (!)\n");
        return;
    }
    bench::print(" wave syncs all 20 at t=%.0f s;", sync_at->sec());
    double recovered_at = -1.0;
    for (const auto& round : tracker.rounds()) {
        if (round.end_time > *sync_at && round.largest <= 2) {
            recovered_at = round.end_time.sec();
            break;
        }
    }
    if (recovered_at > 0) {
        bench::print(" recovered (largest<=2) after %.0f s\n",
                     recovered_at - sync_at->sec());
    } else {
        bench::print(" still synchronized at t=200000 s\n");
    }
}

} // namespace

int main(int argc, char** argv) {
    bench::parse_options(
        argc, argv, "triggered-update wave: instant synchronization and its cure");
    bench::print("a triggered-update wave at t=10000 s hits 20 routers "
                 "(Tp=121 s, Tc=0.11 s):\n\n");
    run("Tr = 0.05 s (< Tc/2):", sim::SimTime::seconds(0.05));
    run("Tr = 0.11 s (= Tc):", sim::SimTime::seconds(0.11));
    run("Tr = 1.10 s (= 10*Tc):", sim::SimTime::seconds(1.10));

    bench::print("\nmoral: triggered updates make 'start unsynchronized and hope'"
                 " a losing strategy —\nthe jitter must be large enough to "
                 "dissolve synchronization, not just avoid creating it.\n");
    bench::opts().sim_seconds = 3 * 200000.0;
    return bench::footer_quiet();
}
