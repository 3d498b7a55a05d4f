// Unit tests for the ready-made testbeds (integration behaviour is
// covered in integration_test.cpp; these check construction invariants).
#include <gtest/gtest.h>

#include <stdexcept>

#include "obs/trace_sink.hpp"
#include "obs/tracer.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using namespace routesync;
using namespace sim::literals;

TEST(NearnetScenario, TopologyMatchesConfig) {
    scenarios::NearnetConfig cfg;
    cfg.core_routers = 5;
    scenarios::NearnetScenario s{cfg};
    // 2 hosts + R1 + R2 + 5 cores.
    EXPECT_EQ(s.network().node_count(), 9);
    EXPECT_EQ(s.network().routers().size(), 7U);
    EXPECT_EQ(s.agents().size(), 7U);
    EXPECT_GT(s.routing_start().sec(), 0.0);
}

TEST(NearnetScenario, StaticRoutesConnectTheMeasuredPath) {
    scenarios::NearnetScenario s{scenarios::NearnetConfig{}};
    EXPECT_TRUE(s.r1().has_route(s.dst().id()));
    EXPECT_TRUE(s.r2().has_route(s.src().id()));
}

TEST(NearnetScenario, AgentsUseIgrpStyleTimers) {
    scenarios::NearnetConfig cfg;
    cfg.update_period_sec = 90.0;
    scenarios::NearnetScenario s{cfg};
    for (const auto& agent : s.agents()) {
        EXPECT_DOUBLE_EQ(agent->config().period.sec(), 90.0);
        EXPECT_EQ(agent->config().reset, routing::TimerReset::AtExpiry);
        EXPECT_EQ(agent->config().filler_routes, 300);
    }
}

TEST(NearnetScenario, UnsynchronizedStartSpreadsPhases) {
    scenarios::NearnetConfig cfg;
    cfg.synchronized_start = false;
    cfg.blocking_cpu = true;
    scenarios::NearnetScenario s{cfg};
    // Collect first transmissions; they should span a good part of the
    // period rather than coincide.
    std::vector<double> first_arm;
    for (const auto& agent : s.agents()) {
        agent->on_timer_set = [&first_arm](sim::SimTime t) {
            first_arm.push_back(t.sec());
        };
    }
    s.engine().run_until(s.routing_start() + 95_sec);
    ASSERT_GE(first_arm.size(), s.agents().size());
    double lo = first_arm[0];
    double hi = first_arm[0];
    for (const double t : first_arm) {
        lo = std::min(lo, t);
        hi = std::max(hi, t);
    }
    EXPECT_GT(hi - lo, 20.0);
}

TEST(AudiocastScenario, TopologyMatchesConfig) {
    scenarios::AudiocastConfig cfg;
    cfg.core_routers = 3;
    scenarios::AudiocastScenario s{cfg};
    // 4 hosts + R1 + R2 + 3 cores.
    EXPECT_EQ(s.network().node_count(), 9);
    EXPECT_EQ(s.network().routers().size(), 5U);
}

TEST(AudiocastScenario, PathsExistForAudioAndBackground) {
    scenarios::AudiocastScenario s{scenarios::AudiocastConfig{}};
    sim::Engine& engine = s.engine();
    int audio = 0;
    int bg = 0;
    s.audio_dst().on_packet = [&](const net::Packet& p) {
        audio += p.type == net::PacketType::Audio;
    };
    s.bg_dst().on_packet = [&](const net::Packet& p) {
        bg += p.type == net::PacketType::Data;
    };
    net::Packet a;
    a.type = net::PacketType::Audio;
    a.src = s.audio_src().id();
    a.dst = s.audio_dst().id();
    s.audio_src().send(a);
    net::Packet d;
    d.type = net::PacketType::Data;
    d.src = s.bg_src().id();
    d.dst = s.bg_dst().id();
    s.bg_src().send(d);
    engine.run_until(1_sec);
    EXPECT_EQ(audio, 1);
    EXPECT_EQ(bg, 1);
}

TEST(SharedLanScenario, RejectsABackgroundSourceThatCannotAdvance) {
    // A positive burst every 0 s rescheduled itself at one instant
    // forever: the run hung instead of failing.
    scenarios::SharedLanScenarioConfig cfg;
    cfg.max_time = 10_sec;
    cfg.bg_period = sim::SimTime::zero();
    EXPECT_THROW(scenarios::run_shared_lan_scenario(cfg), std::invalid_argument);
    cfg.bg_period = sim::SimTime::seconds(-0.05);
    EXPECT_THROW(scenarios::run_shared_lan_scenario(cfg), std::invalid_argument);
    // With no bursts there is nothing to send: the run completes.
    cfg.bg_burst = 0;
    cfg.bg_period = sim::SimTime::zero();
    const auto r = scenarios::run_shared_lan_scenario(cfg);
    EXPECT_DOUBLE_EQ(r.end_time_s, 10.0);
    EXPECT_GT(r.updates_sent, 0U);
}

TEST(SharedLanScenario, RejectsANegativeHorizon) {
    scenarios::SharedLanScenarioConfig cfg;
    cfg.max_time = sim::SimTime::seconds(-5);
    EXPECT_THROW(scenarios::run_shared_lan_scenario(cfg), std::invalid_argument);
    cfg.max_time = sim::SimTime::zero();
    EXPECT_DOUBLE_EQ(scenarios::run_shared_lan_scenario(cfg).end_time_s, 0.0);
}

TEST(SharedLanScenario, EventCountOfOneRedCell) {
    // The agents hear routing updates only, so the Data frames that make
    // up most of the traffic cost no fan-out event: the engine runs one
    // event fewer per delivered Data frame than when every station heard
    // every frame. Pinned for one RED cell (buffer 8, load 1, seed 3,
    // 300 s); every other counter is unchanged by that.
    scenarios::SharedLanScenarioConfig cfg;
    cfg.queue_disc = net::elements::QueueDisc::Red;
    cfg.seed = 3;
    cfg.max_time = sim::SimTime::seconds(300);
    const auto r = scenarios::run_shared_lan_scenario(cfg);
    EXPECT_EQ(r.frames_offered, 60099U);
    EXPECT_EQ(r.frames_delivered, 47913U);
    EXPECT_EQ(r.updates_sent, 99U);
    EXPECT_EQ(r.updates_heard, 720U); // 80 updates on the wire x 9 agents
    // 144 511 when every station heard all 47 833 delivered Data frames.
    EXPECT_EQ(r.events_processed, 96678U);
}

TEST(SharedLanScenario, QueuePushesOfOneRedCell) {
    // The same cell, traced and monitored: the frame cycle's contends and
    // transmission ends run in place whenever the engine proves each is
    // its next event, so the engine pushes far fewer events than it runs
    // (96 860 pushes when every step was queued). Virtual dispatch queues
    // every step: the same trace, medium and sync report, more events,
    // no grant.
    scenarios::SharedLanScenarioConfig cfg;
    cfg.queue_disc = net::elements::QueueDisc::Red;
    cfg.seed = 3;
    cfg.max_time = sim::SimTime::seconds(300);
    cfg.monitor = true;
    obs::HashingSink fast_sink;
    obs::Tracer fast_tracer{fast_sink};
    cfg.tracer = &fast_tracer;
    const auto fast = scenarios::run_shared_lan_scenario(cfg);
    EXPECT_EQ(fast.events_processed, 96678U);
    EXPECT_EQ(fast.queue_pushes, 13562U);

    obs::HashingSink virt_sink;
    obs::Tracer virt_tracer{virt_sink};
    cfg.tracer = &virt_tracer;
    cfg.dispatch = net::elements::DispatchMode::Virtual;
    const auto virt = scenarios::run_shared_lan_scenario(cfg);
    EXPECT_EQ(virt_sink.digest(), fast_sink.digest());
    EXPECT_EQ(virt_sink.events_seen(), fast_sink.events_seen());
    EXPECT_EQ(virt.frames_delivered, fast.frames_delivered);
    EXPECT_EQ(virt.collisions, fast.collisions);
    EXPECT_EQ(virt.updates_heard, fast.updates_heard);
    ASSERT_TRUE(fast.sync.has_value() && virt.sync.has_value());
    EXPECT_EQ(virt.sync->r_max, fast.sync->r_max);
    EXPECT_EQ(virt.sync_coupling.edge_count(), fast.sync_coupling.edge_count());
    EXPECT_GE(virt.queue_pushes, virt.events_processed);
}

} // namespace
