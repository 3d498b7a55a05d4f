// Ablation — does ignoring Ethernet contention matter?
//
// The Periodic Messages model "ignores properties of physical networks
// such as the possibility of collisions and retransmissions on an
// Ethernet" (Section 3). Here the same periodic-router workload runs over
// a real CSMA/CD medium: routers broadcast their updates as frames,
// colliding and backing off, and every receiver pays Tc of processing per
// update with the paper's reset-after-processing timer rule.
//
// Result: collisions and contention jitter (sub-millisecond) are three
// orders of magnitude below the processing time Tc (~0.1 s), so the
// synchronization phenomenon survives intact — the model's abstraction is
// sound.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/core.hpp"
#include "net/elements/callback_sink.hpp"
#include "net/elements/element_graph.hpp"
#include "net/elements/periodic_agent.hpp"
#include "net/shared_lan.hpp"
#include "stats/stats.hpp"

using namespace routesync;
using namespace routesync::bench;

namespace {

/// Wires one PeriodicAgent element onto a LAN station: the agent's "out"
/// pushes into a sink that transmits on the medium, and the station's
/// receive callback feeds the agent's ear. The paper's timer rule
/// (reset-after-processing, Tc per update) lives in the element now —
/// this bench is just topology.
net::elements::PeriodicAgent& attach_lan_router(
    net::elements::ElementGraph& graph, net::SharedLan& lan, int id,
    const net::elements::PeriodicAgentConfig& config) {
    auto& agent = graph.add<net::elements::PeriodicAgent>(
        "agent" + std::to_string(id), config);
    const int station =
        lan.attach([&agent](const net::Packet& p) { agent.hear(p); });
    graph.add<net::elements::CallbackSink>(
        "tolan" + std::to_string(id),
        [&lan, station](net::PooledPacket p) { lan.send(station, std::move(p)); });
    graph.connect("agent" + std::to_string(id), 0,
                  "tolan" + std::to_string(id), 0);
    return agent;
}

} // namespace

int main(int argc, char** argv) {
    parse_options(argc, argv);
    header("Ablation",
           "the Periodic Messages workload over a real CSMA/CD Ethernet "
           "(N=20, Tp=121 s, Tr=0.1 s, Tc=0.11 s)");

    sim::Engine engine;
    net::SharedLanConfig lan_cfg; // classic 10 Mb/s Ethernet
    net::SharedLan lan{engine, lan_cfg};

    const int n = 20;
    const auto tp = sim::SimTime::seconds(121);
    const auto tr = sim::SimTime::seconds(0.1);
    const auto tc = sim::SimTime::seconds(0.11);

    net::elements::ElementGraph graph{engine};
    // Loose tolerance: LAN delivery skews cluster members' busy-ends by up
    // to ~N * frame_time (~10 ms), far below Tc.
    core::ClusterTracker tracker{n, tp + tc, sim::SimTime::millis(50)};
    rng::DefaultEngine phases{1234};
    for (int i = 0; i < n; ++i) {
        net::elements::PeriodicAgentConfig cfg;
        cfg.node = i;
        cfg.period = tp;
        cfg.jitter = tr;
        cfg.process_cost = tc;
        cfg.update_bytes = 1000;
        cfg.seed = 400 + static_cast<std::uint64_t>(i);
        auto& agent = attach_lan_router(graph, lan, i, cfg);
        agent.on_timer_set = [&tracker](int node, sim::SimTime t) {
            tracker.on_timer_set(node, t);
        };
        agent.start(
            sim::SimTime::seconds(rng::uniform_real(phases, 0.0, tp.sec())));
    }
    graph.finalize();
    tracker.on_full_sync = [&engine](sim::SimTime) { engine.stop(); };

    engine.run_until(sim::SimTime::seconds(2e6));
    tracker.finish();

    section("results");
    const auto sync = tracker.full_sync_time();
    std::printf("full synchronization : %s s\n",
                sync ? fmt_time(sync->sec()).c_str() : "not reached (2e6 s cap)");
    const auto& ls = lan.stats();
    std::printf("frames delivered     : %llu\n",
                static_cast<unsigned long long>(ls.frames_delivered));
    std::printf("collisions           : %llu (%.2f%% of offered frames)\n",
                static_cast<unsigned long long>(ls.collisions),
                100.0 * static_cast<double>(ls.collisions) /
                    static_cast<double>(ls.frames_offered));
    std::printf("frames lost          : %llu\n",
                static_cast<unsigned long long>(ls.drops_excessive_collisions +
                                                ls.drops_queue_full));

    check(sync.has_value(),
          "synchronization emerges despite collisions and backoff "
          "(the Section 3 abstraction is sound)");
    check(ls.collisions > 0,
          "contention genuinely occurred (the ablation exercised CSMA/CD)");
    check(ls.drops_excessive_collisions == 0,
          "binary exponential backoff resolved every collision");

    return footer(engine.now().sec());
}
