// Extension bench — the paper's Section 1 TCP example, quantified:
//
//   "A well-known example of unintended synchronization is the
//    synchronization of the window increase/decrease cycles of separate
//    TCP connections sharing a common bottleneck gateway [ZhCl90] ...
//    the synchronization ... can be avoided by adding randomization to
//    the gateway's algorithm for choosing packets to drop [FJ92]."
//
// Six AIMD flows share one bottleneck. Under drop-tail, overflow episodes
// hit every flow at once: the windows halve in lockstep and the aggregate
// sawtooths. A randomized early-drop gateway spreads the congestion
// signals, so backoff episodes touch fewer flows.
#include <cstdio>

#include "bench/common.hpp"
#include "tcpsync/tcpsync.hpp"

using namespace routesync;
using namespace routesync::bench;

namespace {

tcpsync::TcpExperimentResult run(tcpsync::DropPolicy policy) {
    tcpsync::TcpExperimentConfig c;
    c.flows = 6;
    c.base_rtt_sec = 0.1;
    c.duration_sec = 300.0;
    c.bottleneck.policy = policy;
    c.bottleneck.rate_pps = 1000.0;
    c.bottleneck.buffer_packets = 150;
    c.bottleneck.red_min_frac = 0.1;
    c.bottleneck.red_max_frac = 0.6;
    c.bottleneck.red_p_max = 0.03;
    c.bottleneck.red_weight = 0.002;
    return tcpsync::run_tcp_experiment(c);
}

const char* name(tcpsync::DropPolicy policy) {
    switch (policy) {
    case tcpsync::DropPolicy::DropTail: return "drop-tail";
    case tcpsync::DropPolicy::RandomDrop: return "random-drop";
    case tcpsync::DropPolicy::RedLike: return "random early drop";
    }
    return "?";
}

} // namespace

int main(int argc, char** argv) {
    parse_options(argc, argv);
    header("Extension (paper Section 1)",
           "TCP window increase/decrease synchronization at a shared "
           "bottleneck, vs gateway drop policy");

    section("6 AIMD flows, 1000 pkt/s bottleneck, 150-packet buffer, 300 s");
    std::printf("%-20s %10s %16s %10s %10s %10s\n", "gateway", "sync_idx",
                "flows/episode", "largest", "util", "agg_cov");
    tcpsync::TcpExperimentResult droptail;
    tcpsync::TcpExperimentResult red;
    double sim_seconds = 0.0;
    for (const auto policy :
         {tcpsync::DropPolicy::DropTail, tcpsync::DropPolicy::RandomDrop,
          tcpsync::DropPolicy::RedLike}) {
        const auto r = run(policy);
        sim_seconds += r.end_time_sec;
        std::printf("%-20s %10.3f %16.2f %10d %10.3f %10.3f\n", name(policy),
                    r.sync_index, r.mean_flows_per_episode,
                    r.largest_halving_cluster, r.link_utilization,
                    r.aggregate_window_cov);
        if (policy == tcpsync::DropPolicy::DropTail) {
            droptail = r;
        }
        if (policy == tcpsync::DropPolicy::RedLike) {
            red = r;
        }
    }

    section("summary");
    std::printf("drop-tail backoff episodes touch %.1f of 6 flows; randomized "
                "early drop %.1f\n",
                droptail.mean_flows_per_episode, red.mean_flows_per_episode);

    check(droptail.mean_flows_per_episode > 4.0,
          "drop-tail synchronizes: most flows halve together in each episode");
    check(red.mean_flows_per_episode < droptail.mean_flows_per_episode - 1.0,
          "randomized dropping de-synchronizes the backoffs (the [FJ92] fix)");
    check(red.sync_index < droptail.sync_index,
          "the clustered-halving fraction falls under randomization");
    check(droptail.largest_halving_cluster == 6,
          "under drop-tail, global all-flow backoffs occur");
    check(droptail.link_utilization > 0.9 && red.link_utilization > 0.6,
          "both gateways keep the link busy (shape, not tuning, is the point)");

    return footer(sim_seconds);
}
