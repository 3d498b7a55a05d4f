// routing_storm: the user-visible damage of synchronized routing updates,
// measured with ping on a packet-level network — and what each candidate
// fix does about it.
//
//   $ ./examples/routing_storm
//
// Recreates the paper's Section 2 situation (NEARnet, May 1992): a path
// through core routers whose IGRP-style updates are synchronized. Every
// ~90 s the route processors stall on the update storm and pings die in
// bursts. Three remedies are compared:
//   1. non-blocking forwarding (the actual NEARnet hotfix),
//   2. update-timer jitter (the paper's recommendation),
//   3. both.
#include "bench/common.hpp"
#include "scenarios/scenarios.hpp"
#include "stats/stats.hpp"

using namespace routesync;

namespace {

struct Outcome {
    double loss_pct;
    std::size_t dominant_lag;
    double correlation;
};

Outcome measure(const scenarios::NearnetConfig& config,
                obs::RunContext* ctx = nullptr) {
    scenarios::NearnetScenario s{config, ctx};
    apps::PingConfig pc;
    pc.dst = s.dst().id();
    pc.count = 800;
    apps::PingApp ping{s.src(), pc};
    ping.start(s.routing_start() + sim::SimTime::seconds(200));
    s.engine().run_until(sim::SimTime::seconds(1300));
    if (ctx != nullptr) {
        s.collect_metrics(*ctx);
    }

    const auto series = ping.rtts_with_losses_as(2.0);
    const auto dom = stats::dominant_lag(series, 30, 150);
    return Outcome{100.0 * ping.loss_fraction(), dom.lag, dom.correlation};
}

} // namespace

int main(int argc, char** argv) {
    static constexpr cli::FlagSpec kExtra[] = {bench::kTraceFlag};
    bench::Options& options = bench::parse_options(
        argc, argv, "routing storm: user-visible damage and three fixes", kExtra);
    bench::print("pinging across a core with synchronized 90 s routing updates\n");
    bench::print("(300-route tables, 1 ms/route processing — the paper's cisco "
                 "measurements)\n\n");
    bench::print("%-34s %8s %12s %8s\n", "configuration", "loss%", "period_lag",
                 "corr");

    scenarios::NearnetConfig broken; // blocking CPUs, synchronized, tiny jitter
    const auto a = measure(broken, &options.ctx);
    bench::print("%-34s %8.2f %12zu %8.2f\n", "synchronized + blocking (1992)",
                 a.loss_pct, a.dominant_lag, a.correlation);

    scenarios::NearnetConfig hotfix = broken;
    hotfix.blocking_cpu = false;
    const auto b = measure(hotfix);
    bench::print("%-34s %8.2f %12zu %8.2f\n", "non-blocking CPUs (NEARnet fix)",
                 b.loss_pct, b.dominant_lag, b.correlation);

    scenarios::NearnetConfig jittered = broken;
    jittered.jitter_sec = 45.0; // half the period: U[45 s, 135 s]
    jittered.synchronized_start = false;
    const auto c = measure(jittered);
    bench::print("%-34s %8.2f %12zu %8.2f\n", "half-period update jitter",
                 c.loss_pct, c.dominant_lag, c.correlation);

    bench::print("\nnotes:\n");
    bench::print(" * the 1992 configuration drops pings in bursts every ~90 s "
                 "(autocorrelation peak at lag ~89);\n");
    bench::print(" * non-blocking forwarding removes the drops but the update "
                 "storm itself (and its network load) remains;\n");
    bench::print(" * jitter removes the storm: updates spread across the whole "
                 "period.\n");
    options.sim_seconds = 3 * 1300.0;
    return bench::footer_quiet();
}
