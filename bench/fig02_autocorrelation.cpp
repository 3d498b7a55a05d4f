// Figure 2 — "The autocorrelation of roundtrip times": the RTT series of
// Figure 1 with dropped pings assigned a 2-second RTT, autocorrelated;
// the paper's signature is the peak at lag 89 (~90 s / 1.01 s per ping).
#include <cstdio>

#include "bench/common.hpp"
#include "scenarios/scenarios.hpp"
#include "stats/stats.hpp"

using namespace routesync;
using namespace routesync::bench;

int main(int argc, char** argv) {
    static constexpr cli::FlagSpec kExtra[] = {kTraceFlag};
    Options& options =
        parse_options(argc, argv, "Figure 2: RTT autocorrelation", kExtra);
    options.sim_seconds = 1500.0;
    header("Figure 2", "autocorrelation of the Figure 1 RTT series (losses -> 2 s)");

    scenarios::NearnetScenario s{scenarios::NearnetConfig{}, &options.ctx};
    apps::PingConfig pc;
    pc.dst = s.dst().id();
    pc.count = 1000;
    apps::PingApp ping{s.src(), pc};
    ping.start(s.routing_start() + sim::SimTime::seconds(200));
    s.engine().run_until(sim::SimTime::seconds(1500));
    s.collect_metrics(options.ctx);

    const auto series = ping.rtts_with_losses_as(2.0);
    const auto r = stats::autocorrelation(series, 200);

    section("series: lag (pings) vs autocorrelation");
    std::printf("%5s %10s\n", "lag", "r");
    for (std::size_t k = 1; k <= 200; k += (k < 100 ? 1 : 5)) {
        std::printf("%5zu %10.4f\n", k, r[k]);
    }

    const auto dom = stats::dominant_lag(series, 30, 150);
    const auto freq = stats::dominant_frequency(series, 1.0 / 150.0, 0.5);
    section("summary");
    std::printf("dominant lag      : %zu pings (paper: 89)\n", dom.lag);
    std::printf("corr at that lag  : %.3f\n", dom.correlation);
    std::printf("corr at 2x lag    : %.3f\n", r[2 * dom.lag]);
    std::printf("spectral peak     : period %.1f pings (frequency %.5f "
                "cycles/ping)\n",
                freq.period, freq.frequency);

    check(dom.lag >= 87 && dom.lag <= 91,
          "dominant autocorrelation lag ~89 pings (~90 s period)");
    check(dom.correlation > 0.4, "the periodic component dominates the series");
    check(r[2 * dom.lag] > 0.25, "harmonic at twice the lag (periodic, not one-off)");
    check(freq.period > 85 && freq.period < 93,
          "the periodogram corroborates the ~89-ping period in the "
          "frequency domain");

    return footer();
}
