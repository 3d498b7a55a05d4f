// Unit tests for the ready-made testbeds (integration behaviour is
// covered in integration_test.cpp; these check construction invariants).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace_sink.hpp"
#include "obs/tracer.hpp"
#include "scenarios/registry.hpp"
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

/// Runs builtin `name` through the registry with every flag of its tables
/// set from `values` (a boolean by its bare name) and returns the
/// "key,value" lines it prints, in order.
std::vector<std::pair<std::string, std::string>> run_with_every_flag(
    const std::string& name, const std::map<std::string, std::string>& values) {
    scenarios::register_builtin_scenarios();
    const auto& registry = scenarios::ScenarioRegistry::instance();
    std::vector<std::string> tokens;
    for (const cli::Table table : registry.find(name)->flags) {
        for (const cli::FlagSpec& f : table) {
            tokens.push_back("--" + std::string{f.name});
            if (f.kind != cli::Kind::Bool) {
                EXPECT_TRUE(values.contains(std::string{f.name}))
                    << name << " --" << f.name;
                tokens.push_back(values.at(std::string{f.name}));
            }
        }
    }
    testing::internal::CaptureStdout();
    EXPECT_EQ(registry.run(name, tokens), 0);
    std::istringstream out{testing::internal::GetCapturedStdout()};
    std::vector<std::pair<std::string, std::string>> lines;
    for (std::string line; std::getline(out, line);) {
        const auto comma = line.find(',');
        lines.emplace_back(line.substr(0, comma), line.substr(comma + 1));
    }
    return lines;
}

std::vector<std::string> keys(const std::vector<std::pair<std::string, std::string>>& lines) {
    std::vector<std::string> out;
    for (const auto& line : lines) {
        out.push_back(line.first);
    }
    return out;
}

TEST(ScenarioRegistry, NearnetAndAudiocastRunWithEveryFlagOfTheirTables) {
    // Nothing else runs these two runners; each table entry must be
    // accepted and reach the run.
    const auto nearnet = run_with_every_flag(
        "nearnet", {{"core-routers", "3"}, {"filler-routes", "50"}, {"period", "90"},
                    {"jitter", "0.1"}, {"pings", "100"}, {"max-time", "400"},
                    {"seed", "2"}});
    EXPECT_EQ(keys(nearnet),
              (std::vector<std::string>{"scenario", "core_routers", "blocking_cpu",
                                        "jitter_s", "pings_sent", "pings_lost",
                                        "loss_fraction"}));
    ASSERT_EQ(nearnet.size(), 7U);
    EXPECT_EQ(nearnet[0].second, "nearnet");
    EXPECT_EQ(nearnet[1].second, "3"); // --core-routers
    EXPECT_EQ(nearnet[2].second, "0"); // --non-blocking
    EXPECT_EQ(nearnet[3].second, "0.1");
    EXPECT_EQ(nearnet[4].second, "100"); // --pings, all sent by 400 s

    const auto audiocast = run_with_every_flag(
        "audiocast", {{"core-routers", "3"}, {"jitter", "0.1"}, {"bg-pps", "200"},
                      {"max-time", "200"}, {"seed", "2"}});
    EXPECT_EQ(keys(audiocast),
              (std::vector<std::string>{"scenario", "jitter_s", "packets_sent",
                                        "packets_lost", "outages",
                                        "periodic_spikes"}));
    ASSERT_EQ(audiocast.size(), 6U);
    EXPECT_EQ(audiocast[0].second, "audiocast");
    EXPECT_EQ(audiocast[1].second, "0.1");
    EXPECT_GT(std::stoul(audiocast[2].second), 0U);
}

TEST(ScenarioRegistry, SharedLanRunsWithEveryFlagOfItsTables) {
    // The run's two tables: the config and --out, which the sweep reads
    // too, and the monitor's, which adds the sync_* lines.
    const std::string manifest = ::testing::TempDir() + "shared_lan_every_flag.json";
    const auto lan = run_with_every_flag(
        "shared_lan",
        {{"queue", "red"}, {"n", "6"}, {"tp", "30"}, {"tr", "0.05"}, {"tc", "0.2"},
         {"queue-cap", "8"}, {"red-min", "2"}, {"red-max", "6"}, {"red-maxp", "0.1"},
         {"red-weight", "0.1"}, {"bg-burst", "10"}, {"bg-period", "0.05"},
         {"max-time", "300"}, {"seed", "3"}, {"dispatch", "virtual"}, {"out", manifest},
         {"sync-threshold", "0.9"}, {"sync-hysteresis", "0.05"}});
    EXPECT_EQ(keys(lan),
              (std::vector<std::string>{
                  "scenario", "queue", "n", "end_time_s", "frames_offered",
                  "frames_delivered", "collisions", "drops_queue", "red_early_drops",
                  "red_forced_drops", "updates_sent", "updates_heard",
                  "update_delivery_rate", "largest_cluster", "largest_cluster_time_s",
                  "full_sync_time_s", "sync_r_last", "sync_r_max", "sync_transitions",
                  "sync_time_to_sync_s", "sync_entropy_last", "sync_largest_fraction",
                  "coupling_edges", "coupling_total_weight"}));
    ASSERT_EQ(lan.size(), 24U);
    EXPECT_EQ(lan[1].second, "red");
    EXPECT_EQ(lan[2].second, "6");
    EXPECT_EQ(lan[3].second, "300.000"); // --max-time, never fully synced
    EXPECT_GT(std::stoul(lan[8].second), 0U); // RED's early drops
    // The monitor saw every re-arm: its coupling weight is the updates sent.
    EXPECT_GT(std::stoul(lan[10].second), 0U);
    EXPECT_EQ(lan[23].second, lan[10].second);
    const double r_max = std::stod(lan[17].second);
    EXPECT_GE(r_max, std::stod(lan[16].second));
    EXPECT_LE(r_max, 1.0);

    // --out: the manifest records the monitor's settings and metrics and
    // the run's cost, sealed by its RunContext.
    std::ifstream in{manifest};
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    for (const char* field :
         {"\"monitor\": \"true\"", "\"sync_threshold\": \"0.9", "\"sync.rearms\": ",
          "\"engine.events_processed\": ", "\"lan.frames_offered\": ",
          "\"sim_seconds\": 300,"}) {
        EXPECT_NE(text.find(field), std::string::npos) << field << "\n" << text;
    }
    for (const char* zero : {"\"wall_seconds\": 0,", "\"peak_rss_bytes\": 0,"}) {
        EXPECT_EQ(text.find(zero), std::string::npos) << zero;
    }
    std::remove(manifest.c_str());
}

} // namespace
