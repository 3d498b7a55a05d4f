// Quickstart: simulate a network of periodic routers and watch them
// synchronize.
//
//   $ ./examples/quickstart [--seed S] [--trace FILE] [--out FILE]
//
// Twenty routers send routing messages roughly every 121 seconds, with
// only ~0.1 s of accidental timing noise. Although they start at random
// phases, the weak coupling of the Periodic Messages model (a router
// re-arms its timer only after processing its own and any overlapping
// updates) pulls them into lockstep — the central result of Floyd &
// Jacobson, "The Synchronization of Periodic Routing Messages"
// (SIGCOMM '93).
#include "bench/common.hpp"
#include "core/core.hpp"

using namespace routesync;

int main(int argc, char** argv) {
    static constexpr cli::FlagSpec kExtra[] = {bench::kTraceFlag};
    bench::Options& options = bench::parse_options(
        argc, argv, "quickstart: watch periodic routers synchronize", kExtra);
    // 1. Describe the system: N routers, period Tp, jitter Tr, per-message
    //    processing cost Tc.
    core::ExperimentConfig config;
    config.params.n = 20;
    config.params.tp = sim::SimTime::seconds(121.0);
    config.params.tr = sim::SimTime::seconds(0.1);
    config.params.tc = sim::SimTime::seconds(0.11);
    config.params.start = core::StartCondition::Unsynchronized;
    config.params.seed = options.seed_or(2026);

    // 2. Run until full synchronization (or the time horizon).
    config.max_time = sim::SimTime::seconds(1e6);
    config.stop_on_full_sync = true;
    config.record_rounds = true;
    config.obs = &options.ctx; // --trace records every timer set/fire
    options.ctx.manifest().seeds.assign(1, config.params.seed);

    const auto result = core::run_experiment(config);

    // 3. Inspect the outcome.
    bench::print("simulated %llu rounds, %llu routing messages\n",
                 static_cast<unsigned long long>(result.rounds_closed),
                 static_cast<unsigned long long>(result.total_transmissions));
    if (result.full_sync_time_sec) {
        bench::print("all %d routers synchronized after %.0f s (%.1f hours)\n",
                     config.params.n, *result.full_sync_time_sec,
                     *result.full_sync_time_sec / 3600.0);
    } else {
        bench::print("no full synchronization within %.0f s\n",
                     result.end_time_sec);
    }

    // First times each cluster size appeared — the growth staircase.
    bench::print("\n%8s %14s\n", "cluster", "first seen (s)");
    for (int s = 2; s <= config.params.n; s += 2) {
        const auto& t = result.first_hit_up[static_cast<std::size_t>(s)];
        bench::print("%8d %14s\n", s,
                     t ? std::to_string(static_cast<long long>(*t)).c_str() : "-");
    }

    // 4. The fix: re-run with the paper's recommended [0.5*Tp, 1.5*Tp]
    //    jitter. The system now never synchronizes. The trace/manifest
    //    describe the headline run only: a JSONL trace is one simulation
    //    (monotonic time), so the re-run must not append to it.
    config.obs = nullptr;
    config.make_policy = [&] {
        return std::make_unique<core::HalfPeriodJitter>(config.params.tp);
    };
    const auto fixed = core::run_experiment(config);
    bench::print("\nwith uniform [0.5*Tp, 1.5*Tp] timers: %s\n",
                 fixed.full_sync_time_sec ? "synchronized (unexpected!)"
                                          : "never synchronizes");
    options.sim_seconds = result.end_time_sec;
    return bench::footer_quiet();
}
