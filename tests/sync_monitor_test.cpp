// Tests for the synchronization observatory (obs/sync_monitor.hpp +
// obs/coupling_graph.hpp): unit behaviour of the streaming order
// parameter, detector, entropy, and coupling graph — plus the headline
// determinism contracts:
//
//   * the engine and the PmKernel produce bit-identical sync reports
//     over randomized configs;
//   * replay_sync over a run's own trace reproduces the live monitor
//     exactly (r series endpoints, transitions, coupling graph);
//   * merged sync.* metrics are byte-identical across --jobs settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/core.hpp"
#include "obs/json.hpp"
#include "obs/run_context.hpp"
#include "obs/sync_monitor.hpp"
#include "obs/trace_sink.hpp"
#include "parallel/parallel.hpp"
#include "rng/rng.hpp"
#include "scenarios/shared_lan_scenario.hpp"

using namespace routesync;

namespace {

// ---- unit: order parameter ----------------------------------------------

TEST(SyncMonitorTest, AlignedPhasesGiveUnityOrderParameter) {
    obs::SyncMonitorConfig cfg;
    cfg.n = 4;
    cfg.period_sec = 10.0;
    obs::SyncMonitor mon{cfg};
    EXPECT_EQ(mon.r(), 0.0); // nobody armed yet
    for (int node = 0; node < 4; ++node) {
        mon.on_timer_set(node, sim::SimTime::seconds(20.0));
    }
    EXPECT_NEAR(mon.r(), 1.0, 1e-12);
}

TEST(SyncMonitorTest, OppositePhasesCancel) {
    obs::SyncMonitorConfig cfg;
    cfg.n = 2;
    cfg.period_sec = 1.0;
    obs::SyncMonitor mon{cfg};
    mon.on_timer_set(0, sim::SimTime::seconds(3.0)); // phase 0
    mon.on_timer_set(1, sim::SimTime::seconds(3.5)); // phase pi
    EXPECT_NEAR(mon.r(), 0.0, 1e-12);
}

TEST(SyncMonitorTest, RearmMovesOnlyThatNodesPhasor) {
    obs::SyncMonitorConfig cfg;
    cfg.n = 4;
    cfg.period_sec = 1.0;
    obs::SyncMonitor mon{cfg};
    for (int node = 0; node < 4; ++node) {
        mon.on_timer_set(node, sim::SimTime::seconds(1.0));
    }
    // Node 0 re-arms half a period out: sum = 3*e^{i0} + e^{i*pi}.
    mon.on_timer_set(0, sim::SimTime::seconds(1.5));
    EXPECT_NEAR(mon.r(), 0.5, 1e-12);
    // Partial population: unarmed nodes count in the denominator.
    obs::SyncMonitorConfig half = cfg;
    half.n = 8;
    obs::SyncMonitor mon8{half};
    for (int node = 0; node < 4; ++node) {
        mon8.on_timer_set(node, sim::SimTime::seconds(1.0));
    }
    EXPECT_NEAR(mon8.r(), 0.5, 1e-12);
}

// ---- unit: detector ------------------------------------------------------

TEST(SyncMonitorTest, DetectorCrossesWithHysteresis) {
    obs::SyncMonitorConfig cfg;
    cfg.n = 2;
    cfg.period_sec = 1.0;
    cfg.threshold = 0.9;
    cfg.hysteresis = 0.3; // down-crossing at 0.6
    obs::SyncMonitor mon{cfg};

    mon.on_timer_set(0, sim::SimTime::seconds(1.0));
    EXPECT_EQ(mon.transitions().size(), 0u); // r = 0.5, below threshold
    mon.on_timer_set(1, sim::SimTime::seconds(2.0));
    ASSERT_EQ(mon.transitions().size(), 1u); // r ~ 1: entered sync
    EXPECT_TRUE(mon.transitions()[0].up);
    EXPECT_EQ(mon.transitions()[0].time, sim::SimTime::seconds(2.0));

    // r drops to ~0.707 — inside the hysteresis band, no transition.
    mon.on_timer_set(1, sim::SimTime::seconds(2.25));
    EXPECT_EQ(mon.transitions().size(), 1u);
    // r drops to ~0: leaves sync.
    mon.on_timer_set(1, sim::SimTime::seconds(2.5));
    ASSERT_EQ(mon.transitions().size(), 2u);
    EXPECT_FALSE(mon.transitions()[1].up);

    mon.finish(sim::SimTime::seconds(3.0));
    EXPECT_EQ(mon.report().transitions, 2u);
    EXPECT_FALSE(mon.report().in_sync);
    EXPECT_EQ(mon.report().time_to_sync_sec, 2.0);
}

TEST(SyncMonitorTest, ConstructorValidates) {
    obs::SyncMonitorConfig cfg;
    cfg.n = 0;
    cfg.period_sec = 1.0;
    EXPECT_THROW(obs::SyncMonitor{cfg}, std::invalid_argument);
    cfg.n = 2;
    cfg.period_sec = 0.0;
    EXPECT_THROW(obs::SyncMonitor{cfg}, std::invalid_argument);
    cfg.period_sec = 1.0;
    cfg.threshold = 1.5;
    EXPECT_THROW(obs::SyncMonitor{cfg}, std::invalid_argument);
    cfg.threshold = 0.5;
    cfg.hysteresis = 0.6; // >= threshold
    EXPECT_THROW(obs::SyncMonitor{cfg}, std::invalid_argument);
}

// ---- unit: per-round entropy --------------------------------------------

TEST(SyncMonitorTest, TwoEqualClustersGiveHalfEntropy) {
    obs::SyncMonitorConfig cfg;
    cfg.n = 4;
    cfg.period_sec = 10.0;
    obs::SyncMonitor mon{cfg};
    // One round = 4 re-arms: two clusters of two.
    mon.on_timer_set(0, sim::SimTime::seconds(1.0));
    mon.on_timer_set(1, sim::SimTime::seconds(1.0));
    mon.on_timer_set(2, sim::SimTime::seconds(5.0));
    mon.on_timer_set(3, sim::SimTime::seconds(5.0));
    mon.finish(sim::SimTime::seconds(10.0));
    EXPECT_EQ(mon.report().rounds_closed, 1u);
    // H = ln 2 normalized by ln 4.
    EXPECT_NEAR(mon.report().entropy_last, 0.5, 1e-12);
    EXPECT_EQ(mon.report().largest_fraction_last, 0.5);
}

// ---- unit: coupling graph ------------------------------------------------

TEST(CouplingGraphTest, AccumulatesAndSorts) {
    obs::CouplingGraph g;
    g.add_edge(2, 1);
    g.add_edge(0, 1, 3);
    g.add_edge(2, 1); // accumulates onto the first
    EXPECT_EQ(g.edge_count(), 2u);
    EXPECT_EQ(g.total_weight(), 5u);
    EXPECT_EQ(g.node_count(), 3u);
    const auto edges = g.edges();
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_EQ(edges[0].src, 0);
    EXPECT_EQ(edges[0].weight, 3u);
    EXPECT_EQ(edges[1].src, 2);
    EXPECT_EQ(edges[1].weight, 2u);

    obs::CouplingGraph h;
    h.add_edge(0, 1, 3);
    h.add_edge(2, 1, 2);
    EXPECT_TRUE(g == h);
    h.add_edge(5, 5);
    EXPECT_FALSE(g == h);
}

TEST(CouplingGraphTest, DotAndJsonExports) {
    obs::CouplingGraph g;
    g.add_edge(0, 1, 7);
    g.add_edge(1, 1, 2);
    const std::string dot = g.to_dot();
    EXPECT_NE(dot.find("digraph coupling {"), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
    EXPECT_NE(dot.find("weight=7"), std::string::npos);
    const std::string json = g.to_json();
    EXPECT_NE(json.find("\"total_weight\": 9"), std::string::npos);
    EXPECT_NE(json.find("\"src\": 0"), std::string::npos);
}

// The ordered-map graph the flat table replaced, with its exports
// spelled out: the reference every CouplingGraph query must match.
struct MapCouplingGraph {
    std::map<std::pair<int, int>, std::uint64_t> weights;
    std::uint64_t total = 0;

    void add_edge(int src, int dst, std::uint64_t weight) {
        weights[{src, dst}] += weight;
        total += weight;
    }

    [[nodiscard]] std::size_t node_count() const {
        std::set<int> nodes;
        for (const auto& [key, w] : weights) {
            nodes.insert(key.first);
            nodes.insert(key.second);
        }
        return nodes.size();
    }

    [[nodiscard]] std::string to_dot() const {
        std::string out = "digraph coupling {\n";
        for (const auto& [key, w] : weights) {
            out += "  n" + std::to_string(key.first) + " -> n" +
                   std::to_string(key.second) + " [label=\"" +
                   std::to_string(w) + "\" weight=" + std::to_string(w) +
                   "];\n";
        }
        return out + "}\n";
    }

    [[nodiscard]] std::string to_json() const {
        obs::JsonWriter w;
        w.begin_object();
        w.key("nodes");
        w.value(static_cast<std::uint64_t>(node_count()));
        w.key("edges");
        w.begin_array();
        for (const auto& [key, weight] : weights) {
            w.begin_object();
            w.key("src");
            w.value(static_cast<std::int64_t>(key.first));
            w.key("dst");
            w.value(static_cast<std::int64_t>(key.second));
            w.key("weight");
            w.value(weight);
            w.end_object();
        }
        w.end_array();
        w.key("total_weight");
        w.value(total);
        w.end_object();
        return w.str();
    }
};

void expect_graph_matches(const obs::CouplingGraph& g,
                          const MapCouplingGraph& ref, std::size_t step) {
    ASSERT_EQ(g.edge_count(), ref.weights.size()) << "step " << step;
    EXPECT_EQ(g.total_weight(), ref.total) << "step " << step;
    EXPECT_EQ(g.node_count(), ref.node_count()) << "step " << step;
    const auto edges = g.edges();
    std::size_t i = 0;
    for (const auto& [key, w] : ref.weights) {
        EXPECT_EQ(edges[i].src, key.first) << "step " << step << " edge " << i;
        EXPECT_EQ(edges[i].dst, key.second) << "step " << step << " edge " << i;
        EXPECT_EQ(edges[i].weight, w) << "step " << step << " edge " << i;
        ++i;
    }
    EXPECT_EQ(g.to_dot(), ref.to_dot()) << "step " << step;
    EXPECT_EQ(g.to_json(), ref.to_json()) << "step " << step;
}

TEST(CouplingGraphTest, FlatTableMatchesOrderedMapReference) {
    struct Add {
        int src;
        int dst;
        std::uint64_t weight;
    };
    std::mt19937_64 gen{93};
    for (int trial = 0; trial < 20; ++trial) {
        // Mostly a dense block of router ids (many repeats, several
        // table growths), with negative and extreme ids, which must
        // still hash apart and sort as signed (src, dst) pairs.
        const int span = 2 + trial * 7;
        std::vector<Add> adds;
        for (int i = 0; i < 3000; ++i) {
            const auto id = [&] {
                const std::uint64_t roll = gen() % 100;
                if (roll == 0) {
                    return gen() % 2 == 0 ? INT_MIN : INT_MAX;
                }
                if (roll < 5) {
                    return -static_cast<int>(gen() % 5) - 1;
                }
                return static_cast<int>(gen() % static_cast<std::uint64_t>(span));
            };
            const int src = id();
            const int dst = id();
            const std::uint64_t weight = gen() % 10 == 0 ? 0 : 1 + gen() % 3;
            adds.push_back(Add{src, dst, weight});
        }
        adds.push_back(Add{INT_MIN, INT_MAX, 1});
        adds.push_back(Add{INT_MAX, INT_MIN, 2});

        obs::CouplingGraph g;
        MapCouplingGraph ref;
        EXPECT_EQ(g.edge_count(), 0U);
        EXPECT_EQ(g.to_json(), ref.to_json());
        for (std::size_t i = 0; i < adds.size(); ++i) {
            g.add_edge(adds[i].src, adds[i].dst, adds[i].weight);
            ref.add_edge(adds[i].src, adds[i].dst, adds[i].weight);
            if (i % 500 == 0) {
                expect_graph_matches(g, ref, i);
            }
        }
        expect_graph_matches(g, ref, adds.size());

        // Equality ignores insertion order and how weight was split.
        std::vector<Add> shuffled = adds;
        std::shuffle(shuffled.begin(), shuffled.end(), gen);
        obs::CouplingGraph h;
        for (const Add& a : shuffled) {
            h.add_edge(a.src, a.dst, a.weight);
        }
        EXPECT_TRUE(g == h);
        EXPECT_TRUE(h == g);
        obs::CouplingGraph folded;
        for (const auto& [key, w] : ref.weights) {
            folded.add_edge(key.first, key.second, w);
        }
        EXPECT_TRUE(folded == g);

        // One more unit of weight on one edge, or one new zero-weight
        // edge, breaks equality.
        obs::CouplingGraph heavier = h;
        heavier.add_edge(adds[0].src, adds[0].dst, 1);
        EXPECT_FALSE(heavier == g);
        obs::CouplingGraph wider = h;
        wider.add_edge(span + 1, span + 1, 0);
        EXPECT_FALSE(wider == g);
        EXPECT_FALSE(g == wider);
    }
}

TEST(SyncMonitorTest, CouplingAttributesToLastTransmitter) {
    obs::SyncMonitorConfig cfg;
    cfg.n = 3;
    cfg.period_sec = 10.0;
    obs::SyncMonitor mon{cfg};
    // No transmission yet: self-attribution.
    mon.on_timer_set(0, sim::SimTime::seconds(1.0));
    mon.on_transmit(1, sim::SimTime::seconds(2.0));
    mon.on_timer_set(2, sim::SimTime::seconds(3.0)); // 1 -> 2
    mon.on_transmit(2, sim::SimTime::seconds(4.0));
    mon.on_timer_set(0, sim::SimTime::seconds(5.0)); // 2 -> 0
    mon.finish(sim::SimTime::seconds(6.0));

    const auto edges = mon.coupling().edges();
    ASSERT_EQ(edges.size(), 3u);
    EXPECT_EQ(edges[0].src, 0); // self edge 0 -> 0
    EXPECT_EQ(edges[0].dst, 0);
    EXPECT_EQ(edges[1].src, 1);
    EXPECT_EQ(edges[1].dst, 2);
    EXPECT_EQ(edges[2].src, 2);
    EXPECT_EQ(edges[2].dst, 0);
    EXPECT_EQ(mon.coupling().total_weight(), mon.report().rearms);
}

// ---- differential: engine vs PmKernel ------------------------------------

core::ExperimentConfig random_monitored_config(std::uint64_t seed_base,
                                               std::size_t i) {
    rng::DefaultEngine gen{parallel::derive_seed(seed_base, i)};
    core::ExperimentConfig cfg;
    cfg.params.n = 3 + static_cast<int>(rng::uniform_real(gen, 0.0, 8.0));
    cfg.params.tp = sim::SimTime::seconds(121);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.tr =
        sim::SimTime::seconds(rng::uniform_real(gen, 0.02, 0.25));
    if (rng::uniform_real(gen, 0.0, 1.0) < 0.3) {
        cfg.params.start = core::StartCondition::Synchronized;
    }
    cfg.params.seed = parallel::derive_seed(seed_base + 1, i);
    cfg.max_time =
        sim::SimTime::seconds(rng::uniform_real(gen, 3e3, 1e4));
    cfg.monitor = true;
    cfg.sync_threshold = rng::uniform_real(gen, 0.3, 0.9);
    cfg.sync_hysteresis =
        rng::uniform_real(gen, 0.0, cfg.sync_threshold * 0.4);
    return cfg;
}

void expect_sync_identical(const core::ExperimentResult& a,
                           const core::ExperimentResult& b,
                           const char* what) {
    ASSERT_TRUE(a.sync.has_value()) << what;
    ASSERT_TRUE(b.sync.has_value()) << what;
    const obs::SyncReport& x = *a.sync;
    const obs::SyncReport& y = *b.sync;
    EXPECT_EQ(x.rearms, y.rearms) << what;
    EXPECT_EQ(x.transmissions, y.transmissions) << what;
    EXPECT_EQ(x.transitions, y.transitions) << what;
    EXPECT_EQ(x.rounds_closed, y.rounds_closed) << what;
    // Bitwise double equality — the contract is bit-identity, not
    // tolerance.
    EXPECT_EQ(x.r_last, y.r_last) << what;
    EXPECT_EQ(x.r_max, y.r_max) << what;
    EXPECT_EQ(x.entropy_last, y.entropy_last) << what;
    EXPECT_EQ(x.largest_fraction_last, y.largest_fraction_last) << what;
    EXPECT_EQ(x.in_sync, y.in_sync) << what;
    EXPECT_EQ(x.time_to_sync_sec, y.time_to_sync_sec) << what;
    EXPECT_TRUE(a.sync_coupling == b.sync_coupling) << what;
}

TEST(SyncMonitorDifferentialTest, BackendsAgreeOnRandomizedConfigs) {
    constexpr std::size_t kConfigs = 100;
    std::vector<core::ExperimentConfig> configs;
    configs.reserve(kConfigs);
    for (std::size_t i = 0; i < kConfigs; ++i) {
        configs.push_back(random_monitored_config(2026, i));
    }

    // The same configs through run_experiment_batch, in one call.
    std::vector<core::ExperimentResult> batched =
        core::run_experiment_batch(configs);
    ASSERT_EQ(batched.size(), kConfigs);

    std::size_t transitions_seen = 0;
    for (std::size_t i = 0; i < kConfigs; ++i) {
        core::ExperimentConfig engine_cfg = configs[i];
        engine_cfg.backend = core::ExperimentBackend::Engine;
        const core::ExperimentResult engine_r = core::run_experiment(engine_cfg);

        core::ExperimentConfig kernel_cfg = configs[i];
        kernel_cfg.backend = core::ExperimentBackend::FastKernel;
        const core::ExperimentResult kernel_r = core::run_experiment(kernel_cfg);

        expect_sync_identical(engine_r, kernel_r, "engine vs kernel");
        expect_sync_identical(engine_r, batched[i], "engine vs batch call");
        transitions_seen += engine_r.sync->transitions;
    }
    // The randomized thresholds must actually exercise the detector —
    // a sweep where nothing ever crosses would be a vacuous pass.
    EXPECT_GT(transitions_seen, 0u);
}

// ---- differential: live monitor vs trace replay --------------------------

TEST(SyncMonitorDifferentialTest, ReplayFromTraceMatchesLiveExactly) {
    for (std::size_t i = 0; i < 10; ++i) {
        core::ExperimentConfig cfg = random_monitored_config(777, i);

        obs::RunContext ctx;
        ctx.set_sink(std::make_unique<obs::RingBufferSink>(1u << 20));
        cfg.obs = &ctx;
        const core::ExperimentResult live = core::run_experiment(cfg);
        ASSERT_TRUE(live.sync.has_value());

        const auto* ring =
            dynamic_cast<const obs::RingBufferSink*>(ctx.sink());
        ASSERT_NE(ring, nullptr);
        ASSERT_EQ(ring->dropped(), 0u);
        const std::vector<obs::TraceEvent> events(ring->events().begin(),
                                                  ring->events().end());

        const obs::SyncReplayResult replay = obs::replay_sync(events);
        EXPECT_TRUE(replay.have_config);
        EXPECT_EQ(replay.config.n, cfg.params.n);
        EXPECT_EQ(replay.report.rearms, live.sync->rearms);
        EXPECT_EQ(replay.report.r_last, live.sync->r_last);
        EXPECT_EQ(replay.report.r_max, live.sync->r_max);
        EXPECT_EQ(replay.report.entropy_last, live.sync->entropy_last);
        EXPECT_EQ(replay.report.time_to_sync_sec, live.sync->time_to_sync_sec);
        EXPECT_TRUE(replay.coupling == live.sync_coupling);

        // Transition-by-transition: recomputed == recorded == live.
        ASSERT_EQ(replay.transitions.size(), replay.recorded.size());
        ASSERT_EQ(replay.transitions.size(),
                  static_cast<std::size_t>(live.sync->transitions));
        for (std::size_t k = 0; k < replay.transitions.size(); ++k) {
            EXPECT_EQ(replay.transitions[k].time, replay.recorded[k].time);
            EXPECT_EQ(replay.transitions[k].up, replay.recorded[k].up);
            EXPECT_EQ(replay.transitions[k].r, replay.recorded[k].r);
        }
        // The coupling_edge events written at finish() round-trip too.
        const auto live_edges = live.sync_coupling.edges();
        ASSERT_EQ(replay.recorded_edges.size(), live_edges.size());
        for (std::size_t k = 0; k < live_edges.size(); ++k) {
            EXPECT_EQ(replay.recorded_edges[k].src, live_edges[k].src);
            EXPECT_EQ(replay.recorded_edges[k].dst, live_edges[k].dst);
            EXPECT_EQ(replay.recorded_edges[k].weight, live_edges[k].weight);
        }
    }
}

// ---- determinism: merged sync.* metrics across --jobs --------------------

TEST(SyncMonitorDifferentialTest, MergedSyncMetricsAreJobsInvariant) {
    std::vector<core::ExperimentConfig> configs;
    for (std::size_t i = 0; i < 12; ++i) {
        configs.push_back(random_monitored_config(31, i));
    }
    parallel::SweepScheduler serial{parallel::SweepSchedulerOptions{.jobs = 1}};
    parallel::SweepScheduler wide{parallel::SweepSchedulerOptions{.jobs = 8}};
    const auto r1 = serial.run_all(configs);
    const auto r8 = wide.run_all(configs);
    const obs::MetricsSnapshot m1 = parallel::merge_trial_metrics(r1);
    const obs::MetricsSnapshot m8 = parallel::merge_trial_metrics(r8);
    EXPECT_EQ(m1.to_json(), m8.to_json());
    EXPECT_NE(m1.to_json().find("sync.rearms"), std::string::npos);
}

// ---- scenario: the element-graph workload carries the same observatory ---

TEST(SyncMonitorScenarioTest, SharedLanMonitorReportsAndWireSpec) {
    scenarios::SharedLanScenarioConfig cfg;
    cfg.n = 6;
    cfg.max_time = sim::SimTime::seconds(400);
    cfg.monitor = true;
    const scenarios::SharedLanScenarioResult r =
        run_shared_lan_scenario(cfg);
    ASSERT_TRUE(r.sync.has_value());
    EXPECT_GT(r.sync->rearms, 0u);
    // Every observed re-arm is attributed to exactly one coupling edge.
    EXPECT_EQ(r.sync_coupling.total_weight(), r.sync->rearms);
    EXPECT_GT(r.sync->r_max, 0.0);
    // The wire spec names every element and the full agent -> sink path.
    EXPECT_NE(r.wire_spec.find("// agent0 :: PeriodicAgent"),
              std::string::npos);
    EXPECT_NE(r.wire_spec.find("agent5[0] -> [0]tolan5"), std::string::npos);

    // Monitoring never perturbs the simulation itself.
    scenarios::SharedLanScenarioConfig off = cfg;
    off.monitor = false;
    const scenarios::SharedLanScenarioResult r0 =
        run_shared_lan_scenario(off);
    EXPECT_EQ(r0.updates_sent, r.updates_sent);
    EXPECT_EQ(r0.updates_heard, r.updates_heard);
    EXPECT_EQ(r0.frames_delivered, r.frames_delivered);
    EXPECT_FALSE(r0.sync.has_value());
    EXPECT_EQ(r0.sync_coupling.total_weight(), 0u);
}

} // namespace
