// tcp_global_sync: the paper's *other* famous synchronization — TCP
// congestion windows locking into global oscillation at a shared
// drop-tail bottleneck, and the randomized-gateway cure.
//
//   $ ./examples/tcp_global_sync
//
// Uses the tcpsync library: AIMD flows, a bottleneck gateway with a
// pluggable drop discipline, and halving-cluster synchronization metrics.
#include "bench/common.hpp"
#include "tcpsync/tcpsync.hpp"

using namespace routesync;

namespace {

/// Runs one gateway policy and prints its line; returns the simulated
/// seconds.
double report(const char* label, tcpsync::DropPolicy policy) {
    tcpsync::TcpExperimentConfig config;
    config.flows = 8;
    config.base_rtt_sec = 0.1;
    config.duration_sec = 240.0;
    config.bottleneck.policy = policy;
    config.bottleneck.rate_pps = 1200.0;
    config.bottleneck.buffer_packets = 150;
    config.bottleneck.red_min_frac = 0.1;
    config.bottleneck.red_max_frac = 0.6;
    config.bottleneck.red_p_max = 0.03;
    config.bottleneck.red_weight = 0.002;

    const auto r = tcpsync::run_tcp_experiment(config);
    bench::print("%-24s backoff episodes touch %.1f of 8 flows;"
                 " utilization %.0f%%; aggregate-window swing %.0f%%\n",
                 label, r.mean_flows_per_episode, 100 * r.link_utilization,
                 100 * r.aggregate_window_cov);
    return r.end_time_sec;
}

} // namespace

int main(int argc, char** argv) {
    bench::parse_options(
        argc, argv, "TCP global synchronization at a drop-tail bottleneck");
    bench::print("8 TCP-like flows share one bottleneck for 4 minutes:\n\n");
    double sim_seconds = 0.0;
    sim_seconds += report("drop-tail gateway:", tcpsync::DropPolicy::DropTail);
    sim_seconds += report("random-drop gateway:", tcpsync::DropPolicy::RandomDrop);
    sim_seconds += report("random early drop:", tcpsync::DropPolicy::RedLike);
    bench::print(
        "\nthe drop-tail gateway synchronizes every flow's window cycle\n"
        "(the [ZhCl90] oscillation); randomizing which packet is dropped\n"
        "([FJ92]) breaks the lockstep — the same cure the paper prescribes\n"
        "for routing timers.\n");
    return bench::footer_quiet(sim_seconds);
}
