// Driver for the TCP window-synchronization study: M AIMD flows through
// one bottleneck, with the synchronization of their window-halving events
// quantified the same way the routing analysis quantifies timer clusters.
#pragma once

#include <cstdint>
#include <vector>

#include "tcpsync/aimd_flow.hpp"
#include "tcpsync/bottleneck.hpp"

namespace routesync::tcpsync {

struct TcpExperimentConfig {
    int flows = 8;
    double base_rtt_sec = 0.1;
    /// Per-flow RTT spread: flow i gets base * (1 + spread * i / flows).
    double rtt_spread = 0.1;
    BottleneckConfig bottleneck;
    double duration_sec = 300.0;
    std::uint64_t seed = 1;
};

struct TcpExperimentResult {
    /// Fraction of halving events that occurred in a multi-flow cluster
    /// (two or more distinct flows halving within half a base RTT) — the
    /// synchronization index. 0 = fully independent backoffs.
    double sync_index = 0.0;
    std::uint64_t total_halvings = 0;
    std::uint64_t clustered_halvings = 0;
    /// Largest number of distinct flows halving in one cluster.
    int largest_halving_cluster = 0;
    /// Mean number of distinct flows halving per backoff episode
    /// (episodes = halvings grouped within 2 base RTTs). Global
    /// synchronization drives this towards the flow count; randomized
    /// gateways towards 1.
    double mean_flows_per_episode = 0.0;
    double link_utilization = 0.0; ///< delivered / (rate * duration)
    double drop_fraction = 0.0;
    double mean_window = 0.0;
    /// Oscillation of the aggregate congestion window (std / mean of the
    /// per-RTT samples) — the "oscillating behavior" of [ZhCl90].
    double aggregate_window_cov = 0.0;
    /// Aggregate windows sampled once per base RTT (for oscillation plots).
    std::vector<double> aggregate_window_series;
    double end_time_sec = 0.0; ///< the engine's clock when the run ended
};

[[nodiscard]] TcpExperimentResult run_tcp_experiment(const TcpExperimentConfig& config);

} // namespace routesync::tcpsync
