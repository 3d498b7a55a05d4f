// Figure 1 — "Periodic packet losses from synchronized IGRP routing
// messages": 1000 pings at 1.01 s intervals across core routers whose
// synchronized 90 s updates stall the forwarding plane. Dropped pings are
// plotted with negative RTT, exactly as in the paper.
//
// Also reproduces the paper's Section 2 postscript: with the (post-fix)
// non-blocking routers, the periodic losses disappear.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "scenarios/scenarios.hpp"

using namespace routesync;
using namespace routesync::bench;

namespace {

struct PingRun {
    std::vector<double> rtts;
    double loss_fraction;
    int lost;
    double end_time_sec;
};

PingRun run(bool blocking, obs::RunContext* ctx = nullptr) {
    scenarios::NearnetConfig cfg;
    cfg.blocking_cpu = blocking;
    scenarios::NearnetScenario s{cfg, ctx};
    if (ctx != nullptr && opts().sample_every > 0.0) {
        s.start_sampler(*ctx, opts().sample_every);
    }
    apps::PingConfig pc;
    pc.dst = s.dst().id();
    pc.count = 1000;
    apps::PingApp ping{s.src(), pc};
    ping.start(s.routing_start() + sim::SimTime::seconds(200));
    s.engine().run_until(sim::SimTime::seconds(1500));
    if (ctx != nullptr) {
        s.collect_metrics(*ctx);
    }
    return PingRun{ping.rtts(), ping.loss_fraction(), ping.lost(),
                   s.engine().now().sec()};
}

} // namespace

int main(int argc, char** argv) {
    static constexpr cli::FlagSpec kExtra[] = {kTraceFlag, kSampleEveryFlag};
    Options& options = parse_options(
        argc, argv, "Figure 1: ping losses under synchronized updates", kExtra);
    header("Figure 1",
           "ping RTT series with ~90 s periodic losses from synchronized "
           "IGRP-style updates (blocking route processors)");

    const PingRun pre = run(/*blocking=*/true, &options.ctx);

    section("series: ping number vs RTT (s); negative = dropped — every 10th "
            "shown, plus every loss");
    std::printf("%6s %10s\n", "ping#", "rtt_s");
    for (std::size_t i = 0; i < pre.rtts.size(); ++i) {
        if (i % 10 == 0 || pre.rtts[i] < 0) {
            std::printf("%6zu %10.4f\n", i, pre.rtts[i]);
        }
    }

    section("summary");
    std::printf("pings sent      : %zu\n", pre.rtts.size());
    std::printf("pings lost      : %d\n", pre.lost);
    std::printf("loss fraction   : %.2f%%  (paper: 'at least three percent')\n",
                100.0 * pre.loss_fraction);

    // Loss run-length structure ("several successive pings dropped").
    // Losses within 10 pings of each other belong to one storm (inside a
    // storm the pending buffer occasionally slips a ping through).
    int max_run = 0;
    int current = 0;
    std::vector<std::size_t> run_starts;
    std::size_t last_loss = 0;
    bool any_loss = false;
    for (std::size_t i = 0; i < pre.rtts.size(); ++i) {
        if (pre.rtts[i] < 0) {
            if (!any_loss || i - last_loss > 10) {
                run_starts.push_back(i);
                current = 0;
            }
            any_loss = true;
            last_loss = i;
            ++current;
            max_run = std::max(max_run, current);
        }
    }
    std::printf("loss bursts     : %zu (longest run %d consecutive pings)\n",
                run_starts.size(), max_run);
    if (run_starts.size() >= 2) {
        double mean_gap = 0.0;
        for (std::size_t i = 1; i < run_starts.size(); ++i) {
            mean_gap += static_cast<double>(run_starts[i] - run_starts[i - 1]);
        }
        mean_gap /= static_cast<double>(run_starts.size() - 1);
        std::printf("burst spacing   : %.1f pings (~%.1f s; paper: ~90 s)\n",
                    mean_gap, mean_gap * 1.01);
        check(mean_gap > 80 && mean_gap < 100,
              "loss bursts recur every ~90 s (88-89 pings)");
    } else {
        check(false, "expected at least two loss bursts");
    }

    check(pre.loss_fraction >= 0.02, "loss fraction >= 2% (paper: >= 3%)");
    check(max_run >= 2, "losses come in runs of several successive pings");

    section("the NEARnet fix: non-blocking route processors");
    const PingRun post = run(/*blocking=*/false);
    std::printf("loss fraction with non-blocking CPUs: %.2f%%\n",
                100.0 * post.loss_fraction);
    check(post.lost == 0, "non-blocking routers eliminate the periodic losses");

    return footer(pre.end_time_sec + post.end_time_sec);
}
