#include "tcpsync/experiment.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "stats/running_stats.hpp"

namespace routesync::tcpsync {

TcpExperimentResult run_tcp_experiment(const TcpExperimentConfig& config) {
    sim::Engine engine;
    Bottleneck bottleneck{engine, config.bottleneck};

    std::vector<std::unique_ptr<AimdFlow>> flows;
    flows.reserve(static_cast<std::size_t>(config.flows));
    rng::DefaultEngine phase_gen{config.seed};
    for (int i = 0; i < config.flows; ++i) {
        FlowConfig fc;
        fc.id = i;
        fc.rtt_sec = config.base_rtt_sec *
                     (1.0 + config.rtt_spread * static_cast<double>(i) /
                                std::max(1, config.flows));
        fc.stop_at = sim::SimTime::seconds(config.duration_sec);
        flows.push_back(std::make_unique<AimdFlow>(engine, bottleneck, fc));
    }

    bottleneck.on_delivered = [&flows](const FlowPacket& p) {
        flows[static_cast<std::size_t>(p.flow)]->packet_delivered(p);
    };
    bottleneck.on_dropped = [&flows](const FlowPacket& p) {
        flows[static_cast<std::size_t>(p.flow)]->packet_dropped(p);
    };

    for (auto& flow : flows) {
        flow->start(sim::SimTime::seconds(
            rng::uniform_real(phase_gen, 0.0, config.base_rtt_sec)));
    }

    // Sample the aggregate window once per base RTT.
    TcpExperimentResult result;
    std::function<void()> sample = [&] {
        double total = 0.0;
        for (const auto& flow : flows) {
            total += flow->window();
        }
        result.aggregate_window_series.push_back(total);
        if (engine.now().sec() < config.duration_sec) {
            engine.schedule_after(sim::SimTime::seconds(config.base_rtt_sec), sample);
        }
    };
    engine.schedule_at(sim::SimTime::zero(), sample);

    engine.run_until(sim::SimTime::seconds(config.duration_sec + 5.0));
    result.end_time_sec = engine.now().sec();

    // Collect halvings across flows and cluster them in time.
    struct Event {
        double time;
        int flow;
    };
    std::vector<Event> events;
    stats::RunningStats window_stats;
    for (const auto& flow : flows) {
        for (const auto& h : flow->halvings()) {
            events.push_back(Event{h.time_sec, h.flow});
        }
        window_stats.add(flow->window());
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.time < b.time; });

    const double window = 0.5 * config.base_rtt_sec;
    std::size_t i = 0;
    while (i < events.size()) {
        std::size_t j = i;
        std::set<int> distinct;
        while (j < events.size() && events[j].time - events[i].time <= window) {
            distinct.insert(events[j].flow);
            ++j;
        }
        const auto cluster_size = j - i;
        if (distinct.size() >= 2) {
            result.clustered_halvings += cluster_size;
        }
        result.largest_halving_cluster = std::max(
            result.largest_halving_cluster, static_cast<int>(distinct.size()));
        i = j;
    }
    result.total_halvings = events.size();
    result.sync_index =
        events.empty() ? 0.0
                       : static_cast<double>(result.clustered_halvings) /
                             static_cast<double>(events.size());

    // Episode breadth: group halvings within 2 base RTTs and count the
    // distinct flows backing off together.
    stats::RunningStats breadth;
    const double episode_window = 2.0 * config.base_rtt_sec;
    i = 0;
    while (i < events.size()) {
        std::size_t j = i;
        std::set<int> distinct;
        while (j < events.size() && events[j].time - events[i].time <= episode_window) {
            distinct.insert(events[j].flow);
            ++j;
        }
        breadth.add(static_cast<double>(distinct.size()));
        i = j;
    }
    result.mean_flows_per_episode = breadth.mean();

    stats::RunningStats agg;
    for (const double w : result.aggregate_window_series) {
        agg.add(w);
    }
    result.aggregate_window_cov =
        agg.mean() > 0.0 ? agg.stddev() / agg.mean() : 0.0;

    const auto& bs = bottleneck.stats();
    result.link_utilization =
        static_cast<double>(bs.delivered) /
        (config.bottleneck.rate_pps * config.duration_sec);
    result.drop_fraction =
        bs.arrived == 0 ? 0.0
                        : static_cast<double>(bs.dropped) /
                              static_cast<double>(bs.arrived);
    result.mean_window = window_stats.mean();
    return result;
}

} // namespace routesync::tcpsync
