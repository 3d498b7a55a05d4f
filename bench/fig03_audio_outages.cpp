// Figure 3 — "Periodic packet losses from (conjectured) synchronized RIP
// routing messages": audio outage durations over time. Large spikes every
// 30 s lasting seconds (50-95 % in-storm loss), plus random single-packet
// blips from background cross traffic.
#include <algorithm>
#include <cstdio>

#include "bench/common.hpp"
#include "scenarios/scenarios.hpp"
#include "stats/stats.hpp"

using namespace routesync;
using namespace routesync::bench;

int main(int argc, char** argv) {
    static constexpr cli::FlagSpec kExtra[] = {kTraceFlag};
    Options& options = parse_options(
        argc, argv, "Figure 3: audio outages under synchronized RIP", kExtra);
    header("Figure 3",
           "audio outage durations vs time under synchronized 30 s RIP updates");

    scenarios::AudiocastScenario s{scenarios::AudiocastConfig{}, &options.ctx};
    apps::CbrConfig cc;
    cc.dst = s.audio_dst().id();
    cc.packets_per_second = 50.0;
    cc.stop_at = sim::SimTime::seconds(705);
    apps::CbrSource src{s.audio_src(), cc};
    apps::AudioSink sink{s.audio_dst(), sim::SimTime::seconds(0.02)};
    apps::BackgroundConfig bg;
    bg.dst = s.bg_dst().id();
    bg.mean_packets_per_second = 270.0;
    bg.stop_at = sim::SimTime::seconds(705);
    bg.seed = 99;
    apps::BackgroundTraffic cross{s.bg_src(), bg};

    const auto t0 = s.routing_start() + sim::SimTime::seconds(95);
    src.start(t0);
    cross.start(t0);
    s.engine().run_until(sim::SimTime::seconds(720));
    s.collect_metrics(options.ctx);

    section("series: outage start (s, relative) vs duration (s) and loss count");
    std::printf("%10s %10s %8s\n", "time_s", "outage_s", "lost");
    for (const auto& o : sink.outages()) {
        std::printf("%10.2f %10.3f %8llu\n", o.start_sec - t0.sec(), o.duration_sec,
                    static_cast<unsigned long long>(o.packets_lost));
    }

    const auto spikes = sink.outages_longer_than(0.5);
    const auto blips = sink.outages().size() - spikes.size();

    section("summary");
    std::printf("total outages  : %zu (%zu periodic spikes, %zu random blips)\n",
                sink.outages().size(), spikes.size(), blips);
    std::printf("packets lost   : %llu of %llu (%.1f%%)\n",
                static_cast<unsigned long long>(sink.lost()),
                static_cast<unsigned long long>(src.sent()),
                100.0 * static_cast<double>(sink.lost()) /
                    static_cast<double>(std::max<std::uint64_t>(src.sent(), 1)));

    stats::RunningStats gaps;
    for (std::size_t i = 1; i < spikes.size(); ++i) {
        gaps.add(spikes[i].start_sec - spikes[i - 1].start_sec);
    }
    stats::RunningStats durations;
    double in_storm_loss = 0.0;
    for (const auto& o : spikes) {
        durations.add(o.duration_sec);
        // Within the storm window, the loss rate is lost / (window * rate).
        in_storm_loss = std::max(
            in_storm_loss, static_cast<double>(o.packets_lost) /
                               (o.duration_sec * 50.0 + static_cast<double>(o.packets_lost)));
    }
    std::printf("spike spacing  : mean %.1f s (paper: every 30 s)\n", gaps.mean());
    std::printf("spike duration : mean %.2f s, max %.2f s (paper: several seconds)\n",
                durations.mean(), durations.max());

    check(spikes.size() >= 15, "periodic loss spikes occur throughout the run");
    check(gaps.count() > 0 && gaps.mean() > 27 && gaps.mean() < 33,
          "spikes recur every ~30 s (the RIP update period)");
    check(durations.mean() >= 0.5 && durations.max() <= 10.0,
          "spikes last on the order of seconds");
    check(blips >= 3, "random single-packet blips from cross traffic");

    return footer(s.engine().now().sec());
}
