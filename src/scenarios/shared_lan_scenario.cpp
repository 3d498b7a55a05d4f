#include "scenarios/shared_lan_scenario.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <optional>

#include "core/cluster_tracker.hpp"
#include "net/elements/callback_sink.hpp"
#include "net/elements/element_graph.hpp"
#include "net/elements/periodic_agent.hpp"
#include "net/elements/red_queue.hpp"
#include "net/shared_lan.hpp"
#include "obs/metrics.hpp"
#include "rng/rng.hpp"
#include "sim/engine.hpp"

namespace routesync::scenarios {

namespace {

/// Self-rescheduling background-burst source. Bursts rotate over the
/// stations so every router's queue periodically competes with cross
/// traffic — the congestion the queue discipline has to manage.
class BackgroundBursts {
public:
    BackgroundBursts(sim::Engine& engine, net::SharedLan& lan,
                     const SharedLanScenarioConfig& config)
        : engine_{engine}, lan_{lan}, config_{config} {}

    void start(sim::SimTime at) {
        engine_.schedule_at(at, [this] { fire(); });
    }

private:
    void fire() {
        const int station = static_cast<int>(burst_index_ % config_.n);
        for (int i = 0; i < config_.bg_burst; ++i) {
            net::Packet p;
            p.type = net::PacketType::Data;
            p.src = station;
            p.dst = -1;
            p.size_bytes = config_.bg_bytes;
            p.seq = seq_++;
            p.sent_at = engine_.now();
            lan_.send(station, std::move(p));
        }
        ++burst_index_;
        engine_.schedule_after(config_.bg_period, [this] { fire(); });
    }

    sim::Engine& engine_;
    net::SharedLan& lan_;
    const SharedLanScenarioConfig& config_;
    long burst_index_ = 0;
    std::uint64_t seq_ = 0;
};

} // namespace

SharedLanScenarioResult run_shared_lan_scenario(
    const SharedLanScenarioConfig& config) {
    if (config.bg_burst > 0 && config.bg_period <= sim::SimTime::zero()) {
        // The burst source would reschedule itself at one instant forever.
        throw std::invalid_argument{
            "shared_lan: bg_period must be positive when bg_burst > 0"};
    }
    if (config.max_time < sim::SimTime::zero()) {
        throw std::invalid_argument{"shared_lan: max_time must be >= 0"};
    }
    sim::Engine engine;
    if (config.tracer != nullptr) {
        engine.set_tracer(config.tracer);
    }

    net::SharedLanConfig lan_cfg;
    lan_cfg.rate_bps = config.lan_rate_bps;
    lan_cfg.station_queue_packets = config.queue_packets;
    lan_cfg.queue_disc = config.queue_disc;
    lan_cfg.red = config.red;
    lan_cfg.seed = config.seed + 1; // backoff lottery, decoupled from phases
    lan_cfg.dispatch = config.dispatch;
    net::SharedLan lan{engine, lan_cfg};

    net::elements::ElementGraph graph{engine};
    core::ClusterTracker tracker{config.n, config.tp + config.tc,
                                 sim::SimTime::millis(50)};
    // The result reads the tracker's hitting times, never its per-round
    // records: keeping them would allocate as the run goes on.
    tracker.record_rounds(false);
    tracker.record_round_sizes(config.monitor);

    // The observatory rides the same re-arm stream the tracker sees
    // (agent start() never fires on_timer_set, so — exactly like the
    // engine path — the monitor observes re-arms only), and its cluster
    // readings are the tracker's 50 ms clusters.
    std::optional<obs::SyncMonitor> monitor;
    if (config.monitor) {
        obs::SyncMonitorConfig mc;
        mc.n = config.n;
        mc.period_sec = (config.tp + config.tc).sec();
        mc.threshold = config.sync_threshold;
        mc.hysteresis = config.sync_hysteresis;
        monitor.emplace(mc);
    }
    obs::SyncMonitor* mon = monitor.has_value() ? &*monitor : nullptr;

    std::vector<net::elements::PeriodicAgent*> agents;
    agents.reserve(static_cast<std::size_t>(config.n));
    rng::DefaultEngine phases{config.seed};
    for (int i = 0; i < config.n; ++i) {
        net::elements::PeriodicAgentConfig ac;
        ac.node = i;
        ac.period = config.tp;
        ac.jitter = config.tr;
        ac.process_cost = config.tc;
        ac.update_bytes = config.update_bytes;
        ac.seed = 400 + static_cast<std::uint64_t>(i);
        auto& agent = graph.add<net::elements::PeriodicAgent>(
            "agent" + std::to_string(i), ac);
        // Only routing updates reach the agent's ear: the background Data
        // frames share the queues and the medium, not the processing cost.
        const int station =
            lan.attach([&agent](const net::Packet& p) { agent.hear(p); },
                       {net::PacketType::RoutingUpdate});
        // The sink sees every update the agent offers (pre-queue, sender
        // side) — the transmit stream the monitor samples.
        graph.add<net::elements::CallbackSink>(
            "tolan" + std::to_string(i),
            [&lan, &engine, station, i, mon](net::PooledPacket p) {
                if (mon != nullptr) {
                    mon->on_transmit(i, engine.now());
                }
                lan.send(station, std::move(p));
            });
        graph.connect("agent" + std::to_string(i), 0,
                      "tolan" + std::to_string(i), 0);
        agent.on_timer_set = [&tracker, mon](int node, sim::SimTime t) {
            tracker.on_timer_set(node, t);
            if (mon != nullptr) {
                mon->on_timer_set(node, t);
            }
        };
        agent.start(sim::SimTime::seconds(
            rng::uniform_real(phases, 0.0, config.tp.sec())));
        agents.push_back(&agent);
    }
    graph.finalize(config.dispatch);

    SharedLanScenarioResult result;
    result.wire_spec = graph.wire_spec();

    tracker.on_size_first_reached = [&result](int size, sim::SimTime t) {
        if (size > result.largest_cluster) {
            result.largest_cluster = size;
            result.largest_cluster_time_s = t.sec();
        }
    };
    tracker.on_full_sync = [&engine](sim::SimTime) { engine.stop(); };

    BackgroundBursts bg{engine, lan, config};
    if (config.bg_period > sim::SimTime::zero()) {
        // With bg_period <= 0 the bursts are empty (checked above), and a
        // source that reschedules itself at one instant would never let
        // the run advance.
        bg.start(sim::SimTime::zero());
    }

    engine.run_until(config.max_time);
    tracker.finish();
    if (mon != nullptr) {
        mon->finish(engine.now());
        mon->settle_rounds(tracker.last_round_sizes(), tracker.rounds_closed());
        result.sync = mon->report();
        result.sync_coupling = mon->coupling();
    }
    result.full_sync_time_s = tracker.full_sync_time().has_value()
                                  ? std::optional<double>{tracker.full_sync_time()->sec()}
                                  : std::nullopt;
    result.end_time_s = engine.now().sec();
    result.events_processed = engine.events_processed();
    result.queue_pushes = engine.queue_pushes();

    const net::SharedLanStats& ls = lan.stats();
    result.frames_offered = ls.frames_offered;
    result.frames_delivered = ls.frames_delivered;
    result.collisions = ls.collisions;
    result.drops_queue_full = ls.drops_queue_full;
    for (const auto& elem : lan.graph().elements()) {
        if (const auto* red =
                dynamic_cast<const net::elements::RedQueue*>(elem.get())) {
            result.red_early_drops += red->early_drops();
            result.red_forced_drops += red->forced_drops();
        }
    }
    for (const net::elements::PeriodicAgent* agent : agents) {
        result.updates_sent += agent->updates_sent();
        result.updates_heard += agent->updates_heard();
    }
    return result;
}

void publish_shared_lan_metrics(obs::MetricsRegistry& reg,
                                const SharedLanScenarioResult& result) {
    reg.add("lan.frames_offered", result.frames_offered);
    reg.add("lan.frames_delivered", result.frames_delivered);
    reg.add("lan.collisions", result.collisions);
    reg.add("lan.drops_queue", result.drops_queue_full);
    reg.add("agents.updates_sent", result.updates_sent);
    reg.add("agents.updates_heard", result.updates_heard);
    reg.add("engine.events_processed", result.events_processed);
}

} // namespace routesync::scenarios
