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
#include "bench/common.hpp"
#include "core/core.hpp"

using namespace routesync;

namespace {

/// Runs one Tr and prints its line; returns the simulated seconds.
double run(const char* label, sim::SimTime tr) {
    core::ExperimentConfig cfg;
    cfg.params.n = 20;
    cfg.params.tp = sim::SimTime::seconds(121);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.tr = tr;
    cfg.params.seed = 99;
    // Let the unsynchronized steady state establish itself, then fail a
    // link at t = 10000 s: every router emits a triggered update.
    cfg.trigger_all_at = sim::SimTime::seconds(10000);
    cfg.max_time = sim::SimTime::seconds(200000);
    cfg.record_rounds = true;
    const core::ExperimentResult r = core::run_experiment(cfg);

    // How long did the triggered synchronization last? (The network was
    // unsynchronized before the wave, so look for the first small round
    // strictly after the wave.)
    bench::print("%-28s", label);
    if (!r.full_sync_time_sec) {
        bench::print(" wave did not fully synchronize (!)\n");
        return r.end_time_sec;
    }
    const double sync_at = *r.full_sync_time_sec;
    bench::print(" wave syncs all 20 at t=%.0f s;", sync_at);
    double recovered_at = -1.0;
    for (const auto& round : r.rounds) {
        if (round.end_time.sec() > sync_at && round.largest <= 2) {
            recovered_at = round.end_time.sec();
            break;
        }
    }
    if (recovered_at > 0) {
        bench::print(" recovered (largest<=2) after %.0f s\n",
                     recovered_at - sync_at);
    } else {
        bench::print(" still synchronized at t=200000 s\n");
    }
    return r.end_time_sec;
}

} // namespace

int main(int argc, char** argv) {
    bench::parse_options(
        argc, argv, "triggered-update wave: instant synchronization and its cure");
    bench::print("a triggered-update wave at t=10000 s hits 20 routers "
                 "(Tp=121 s, Tc=0.11 s):\n\n");
    double sim_seconds = 0.0;
    sim_seconds += run("Tr = 0.05 s (< Tc/2):", sim::SimTime::seconds(0.05));
    sim_seconds += run("Tr = 0.11 s (= Tc):", sim::SimTime::seconds(0.11));
    sim_seconds += run("Tr = 1.10 s (= 10*Tc):", sim::SimTime::seconds(1.10));

    bench::print("\nmoral: triggered updates make 'start unsynchronized and hope'"
                 " a losing strategy —\nthe jitter must be large enough to "
                 "dissolve synchronization, not just avoid creating it.\n");
    return bench::footer_quiet(sim_seconds);
}
