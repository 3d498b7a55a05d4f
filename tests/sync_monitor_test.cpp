// Tests for the synchronization observatory (obs/sync_monitor.hpp +
// obs/coupling_graph.hpp): unit behaviour of the streaming order
// parameter, detector, entropy, and coupling graph — plus the headline
// determinism contracts:
//
//   * the monitor, which reuses a re-arm instant's phasor and runs its
//     detector on |sum|^2, matches a fresh-phasor-per-re-arm reference
//     bit for bit on bursty streams;
//   * the engine and the PmKernel produce bit-identical sync reports
//     over randomized configs, also at calendar-queue size;
//   * core::replay_trace over a run's own trace reproduces the live
//     monitor exactly (r series endpoints, transitions, coupling graph);
//   * merged sync.* metrics are byte-identical across --jobs settings;
//   * the round readings of fixed runs are pinned to the bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numbers>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/core.hpp"
#include "core/trace_replay.hpp"
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

// ---- differential: the monitor vs its per-re-arm reference ---------------

/// The monitor's update as it was before it reused phasors and compared
/// squared sums: a fresh phase reduction, sincos and sqrt on every re-arm,
/// and the detector on r itself. Built from a live monitor's config, so
/// both run on the same quantized hysteresis.
class ReferenceMonitor {
public:
    explicit ReferenceMonitor(const obs::SyncMonitorConfig& config)
        : config_{config},
          inv_n_{1.0 / static_cast<double>(config.n)},
          inv_period_{1.0 / config.period_sec},
          re_(static_cast<std::size_t>(config.n), 0.0),
          im_(static_cast<std::size_t>(config.n), 0.0) {}

    void on_transmit(int node) { last_tx_ = node; }

    void on_timer_set(int node, sim::SimTime t) {
        coupling.add_edge(last_tx_ >= 0 ? last_tx_ : node, node);
        const double off =
            t.mod(sim::SimTime::seconds(config_.period_sec)).sec();
        const double theta = 2.0 * std::numbers::pi * (off * inv_period_);
        const double re = std::cos(theta);
        const double im = std::sin(theta);
        const auto idx = static_cast<std::size_t>(node);
        sum_re_ -= re_[idx];
        sum_im_ -= im_[idx];
        re_[idx] = re;
        im_[idx] = im;
        sum_re_ += re;
        sum_im_ += im;
        r = std::sqrt(sum_re_ * sum_re_ + sum_im_ * sum_im_) * inv_n_;
        if (r > r_max) {
            r_max = r;
        }
        if (!in_sync_ && r >= config_.threshold) {
            in_sync_ = true;
            transitions.push_back(obs::SyncTransitionRecord{t, true, r});
            if (time_to_sync_sec < 0.0) {
                time_to_sync_sec = t.sec();
            }
        } else if (in_sync_ && r < config_.threshold - config_.hysteresis) {
            in_sync_ = false;
            transitions.push_back(obs::SyncTransitionRecord{t, false, r});
        }
    }

    double r = 0.0;
    double r_max = 0.0;
    double time_to_sync_sec = -1.0;
    std::vector<obs::SyncTransitionRecord> transitions;
    obs::CouplingGraph coupling;

private:
    obs::SyncMonitorConfig config_;
    double inv_n_;
    double inv_period_;
    std::vector<double> re_, im_;
    double sum_re_ = 0.0, sum_im_ = 0.0;
    int last_tx_ = -1;
    bool in_sync_ = false;
};

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// True when `q` is the least double whose r = sqrt(q) / n reaches `level`.
bool least_square_reaching(double q, double level, int n) {
    const double inv_n = 1.0 / static_cast<double>(n);
    const auto reaches = [level, inv_n](double x) {
        return std::sqrt(x) * inv_n >= level;
    };
    return reaches(q) &&
           !reaches(std::nextafter(q, -std::numeric_limits<double>::infinity()));
}

void expect_least_squares(const obs::SyncMonitor& mon, const std::string& where) {
    const obs::SyncMonitorConfig& c = mon.config();
    const obs::SyncMonitor::DetectorSquares sq = mon.detector_squares();
    EXPECT_TRUE(least_square_reaching(sq.up, c.threshold, c.n)) << where;
    const double down = c.threshold - c.hysteresis;
    EXPECT_TRUE(least_square_reaching(sq.down, down, c.n)) << where;
}

/// Feeds `mon` and a ReferenceMonitor one seeded stream of rounds. In each
/// round a share of the re-arming nodes (swinging between none and all
/// over the stream) re-arm together at one bit-equal time, the rest at
/// random phases; transmissions interleave. Returns the re-arms fed.
std::uint64_t feed_bursty_stream(obs::SyncMonitor& mon, ReferenceMonitor& ref,
                                 std::uint64_t seed, int rounds) {
    const int n = mon.config().n;
    const double period = mon.config().period_sec;
    std::mt19937_64 gen{seed};
    std::uniform_real_distribution<double> u01{0.0, 1.0};
    std::uint64_t rearms = 0;
    std::vector<std::pair<double, int>> arms;
    for (int round = 0; round < rounds; ++round) {
        const double together = 0.5 - 0.5 * std::cos(round * 0.2);
        const double base = period * round;
        // Every third round's burst sits at the round start itself: on a
        // power-of-two period, a phase of exactly 0 and a sum of exactly n.
        const double common = round % 3 == 0 ? 0.0 : period * u01(gen);
        arms.clear();
        for (int node = 0; node < n; ++node) {
            if (u01(gen) < 0.1) {
                continue; // sits this round out
            }
            const double phase = u01(gen) < together ? common : period * u01(gen);
            arms.emplace_back(base + phase, node);
        }
        std::sort(arms.begin(), arms.end());
        for (const auto& [t, node] : arms) {
            if (u01(gen) < 0.5) {
                const int tx = static_cast<int>(gen() % static_cast<std::uint64_t>(n));
                mon.on_transmit(tx, sim::SimTime::seconds(t));
                ref.on_transmit(tx);
            }
            mon.on_timer_set(node, sim::SimTime::seconds(t));
            ref.on_timer_set(node, sim::SimTime::seconds(t));
            ++rearms;
            if (bits_of(mon.r()) != bits_of(ref.r)) {
                ADD_FAILURE() << "r differs: seed " << seed << " round " << round
                              << " node " << node;
                return rearms;
            }
        }
    }
    return rearms;
}

TEST(SyncMonitorReference, MatchesFreshPhasorPerRearmBitForBit) {
    const struct {
        double threshold;
        double hysteresis;
    } levels[] = {{0.95, 0.02}, {1.0, 0.0}, {0.5, 0.3}, {0.8, 0.0}, {0.3, 0.29}};
    std::size_t transitions_seen = 0;
    std::size_t unity_transitions = 0;
    for (const int n : {1, 2, 20, 300}) {
        for (const double period : {8.0, 121.11}) {
            for (const auto& level : levels) {
                const std::uint64_t seed =
                    static_cast<std::uint64_t>(n) * 1000 +
                    static_cast<std::uint64_t>(period) +
                    static_cast<std::uint64_t>(level.threshold * 100.0);
                const std::string where =
                    "n=" + std::to_string(n) + " period=" + std::to_string(period) +
                    " threshold=" + std::to_string(level.threshold);
                obs::SyncMonitor mon{obs::SyncMonitorConfig{
                    .n = n,
                    .period_sec = period,
                    .threshold = level.threshold,
                    .hysteresis = level.hysteresis}};
                expect_least_squares(mon, where);
                ReferenceMonitor ref{mon.config()};
                const int rounds = n >= 300 ? 40 : 200;
                const std::uint64_t rearms = feed_bursty_stream(mon, ref, seed, rounds);
                mon.finish(sim::SimTime::seconds(period * rounds));

                const obs::SyncReport& got = mon.report();
                EXPECT_EQ(got.rearms, rearms) << where;
                EXPECT_EQ(bits_of(got.r_last), bits_of(ref.r)) << where;
                EXPECT_EQ(bits_of(got.r_max), bits_of(ref.r_max)) << where;
                EXPECT_EQ(bits_of(got.time_to_sync_sec), bits_of(ref.time_to_sync_sec))
                    << where;
                EXPECT_TRUE(mon.coupling() == ref.coupling) << where;
                ASSERT_EQ(mon.transitions().size(), ref.transitions.size()) << where;
                EXPECT_EQ(got.transitions, ref.transitions.size()) << where;
                for (std::size_t k = 0; k < ref.transitions.size(); ++k) {
                    const obs::SyncTransitionRecord& a = mon.transitions()[k];
                    const obs::SyncTransitionRecord& b = ref.transitions[k];
                    EXPECT_EQ(bits_of(a.time.sec()), bits_of(b.time.sec())) << where;
                    EXPECT_EQ(a.up, b.up) << where;
                    EXPECT_EQ(bits_of(a.r), bits_of(b.r)) << where;
                }
                transitions_seen += ref.transitions.size();
                if (level.threshold == 1.0) {
                    unity_transitions += ref.transitions.size();
                }
            }
        }
    }
    // The streams must cross the detector both ways, at r = 1 too: a
    // comparison where nothing crosses would pass vacuously.
    EXPECT_GT(transitions_seen, 100U);
    EXPECT_GT(unity_transitions, 10U);
}

TEST(SyncMonitorReference, DetectorSquaresAreTheLeastThatReachTheirLevels) {
    std::mt19937_64 gen{2026};
    std::uniform_real_distribution<double> u01{0.0, 1.0};
    for (int k = 0; k < 2000; ++k) {
        const int n = 1 + static_cast<int>(gen() % (k % 2 == 0 ? 50 : 100000));
        const double threshold = k % 10 == 0 ? 1.0 : 1e-3 + (1.0 - 1e-3) * u01(gen);
        const double hysteresis = k % 7 == 0 ? 0.0 : threshold * 0.99 * u01(gen);
        const obs::SyncMonitor mon{obs::SyncMonitorConfig{
            .n = n, .period_sec = 1.0, .threshold = threshold, .hysteresis = hysteresis}};
        expect_least_squares(mon, "n=" + std::to_string(n) +
                                      " threshold=" + std::to_string(threshold));
    }
}

// ---- unit: per-round entropy --------------------------------------------

TEST(SyncMonitorTest, TwoEqualClustersGiveHalfEntropy) {
    obs::SyncMonitorConfig cfg;
    cfg.n = 4;
    cfg.period_sec = 10.0;
    obs::SyncMonitor mon{cfg};
    // The tracker groups the re-arms the monitor sees, as in a run.
    core::ClusterTracker tracker{cfg.n, sim::SimTime::seconds(cfg.period_sec)};
    tracker.record_round_sizes(true);
    // One round = 4 re-arms: two clusters of two.
    for (const auto& [node, t] : {std::pair{0, 1.0}, std::pair{1, 1.0},
                                  std::pair{2, 5.0}, std::pair{3, 5.0}}) {
        tracker.on_timer_set(node, sim::SimTime::seconds(t));
        mon.on_timer_set(node, sim::SimTime::seconds(t));
    }
    tracker.finish();
    mon.finish(sim::SimTime::seconds(10.0));
    mon.settle_rounds(tracker.last_round_sizes(), tracker.rounds_closed());
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

/// A monitored config at calendar-queue size (n = 200-400), with a
/// trigger_all_at wave in most configs and stop_on_full_sync in half.
core::ExperimentConfig random_calendar_config(std::uint64_t seed_base,
                                              std::size_t i) {
    rng::DefaultEngine gen{parallel::derive_seed(seed_base, i)};
    core::ExperimentConfig cfg;
    cfg.params.n = 200 + static_cast<int>(rng::uniform_real(gen, 0.0, 201.0));
    cfg.params.tp = sim::SimTime::seconds(121);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.tr = sim::SimTime::seconds(rng::uniform_real(gen, 0.02, 0.4));
    if (i % 3 == 2) {
        cfg.params.start = core::StartCondition::Synchronized;
    }
    cfg.params.seed = parallel::derive_seed(seed_base + 1, i);
    cfg.max_time = sim::SimTime::seconds(rng::uniform_real(gen, 2e3, 4e3));
    cfg.stop_on_full_sync = i % 2 == 0;
    if (i % 4 != 3) {
        cfg.trigger_all_at = sim::SimTime::seconds(rng::uniform_real(gen, 300.0, 1500.0));
    }
    cfg.monitor = true;
    cfg.sync_threshold = rng::uniform_real(gen, 0.5, 0.95);
    cfg.sync_hysteresis = rng::uniform_real(gen, 0.0, 0.2);
    return cfg;
}

TEST(SyncMonitorDifferentialTest, BackendsAgreeAtCalendarSize) {
    std::size_t transitions_seen = 0;
    std::size_t stopped_at_full_sync = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        const core::ExperimentConfig cfg = random_calendar_config(4242, i);
        const std::string where = "config " + std::to_string(i) +
                                  " n=" + std::to_string(cfg.params.n);
        ASSERT_GE(cfg.params.n, core::kPmCalendarMinNodes) << where;
        std::uint64_t digests[2] = {};
        core::ExperimentResult results[2];
        const core::ExperimentBackend backends[] = {core::ExperimentBackend::Engine,
                                                    core::ExperimentBackend::FastKernel};
        for (int b = 0; b < 2; ++b) {
            obs::RunContext ctx;
            ctx.set_sink(std::make_unique<obs::HashingSink>());
            core::ExperimentConfig run = cfg;
            run.backend = backends[b];
            run.obs = &ctx;
            results[b] = core::run_experiment(run);
            digests[b] = static_cast<const obs::HashingSink*>(ctx.sink())->digest();
        }
        expect_sync_identical(results[0], results[1], where.c_str());
        EXPECT_EQ(digests[0], digests[1]) << where;
        EXPECT_EQ(results[0].events_processed, results[1].events_processed) << where;
        EXPECT_EQ(results[0].end_time_sec, results[1].end_time_sec) << where;
        transitions_seen += results[1].sync->transitions;
        stopped_at_full_sync += results[1].end_time_sec < cfg.max_time.sec() ? 1 : 0;
    }
    // The waves synchronize the population, so the detector crosses and
    // some stop_on_full_sync runs end early: neither side is vacuous.
    EXPECT_GT(transitions_seen, 0U);
    EXPECT_GT(stopped_at_full_sync, 0U);
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

        const core::TraceReplay full = core::replay_trace(events);
        ASSERT_TRUE(full.sync.has_value()); // the trace has sync_config
        const core::SyncReplay& replay = *full.sync;
        EXPECT_EQ(full.n, cfg.params.n);
        EXPECT_EQ(replay.report.rearms, live.sync->rearms);
        EXPECT_EQ(replay.report.r_last, live.sync->r_last);
        EXPECT_EQ(replay.report.r_max, live.sync->r_max);
        EXPECT_EQ(replay.report.rounds_closed, live.sync->rounds_closed);
        EXPECT_EQ(replay.report.entropy_last, live.sync->entropy_last);
        EXPECT_EQ(replay.report.largest_fraction_last,
                  live.sync->largest_fraction_last);
        EXPECT_EQ(replay.report.time_to_sync_sec, live.sync->time_to_sync_sec);
        EXPECT_TRUE(replay.coupling == live.sync_coupling);

        // Transition-by-transition: recomputed == recorded == live.
        EXPECT_TRUE(replay.transitions_match);
        ASSERT_EQ(replay.transitions.size(), replay.recorded.size());
        ASSERT_EQ(replay.transitions.size(),
                  static_cast<std::size_t>(live.sync->transitions));
        for (std::size_t k = 0; k < replay.transitions.size(); ++k) {
            EXPECT_EQ(replay.transitions[k].time, replay.recorded[k].time);
            EXPECT_EQ(replay.transitions[k].up, replay.recorded[k].up);
            EXPECT_EQ(replay.transitions[k].r, replay.recorded[k].r);
        }
        // The coupling_edge events written at finish() round-trip too.
        EXPECT_TRUE(replay.edges_match);
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

// ---- pinned: the round readings of fixed runs ----------------------------

struct PinnedRounds {
    std::uint64_t rounds_closed;
    double entropy_last;
    double largest_fraction_last;
};

void expect_rounds(const obs::SyncReport& got, const PinnedRounds& want,
                   const std::string& what) {
    EXPECT_EQ(got.rounds_closed, want.rounds_closed) << what;
    EXPECT_EQ(got.entropy_last, want.entropy_last) << what;
    EXPECT_EQ(got.largest_fraction_last, want.largest_fraction_last) << what;
}

// Fig 4's parameters over 10^5 s, seed 42, on both backends: at Tr = 0.1 s
// the run synchronizes (the straddling spill leaves the last round as two
// groups, so the entropy reads ln 2 / ln 20 = 0.231378); at Tr = 10 Tc it
// stays spread (largest group 1 of 20, entropy 0.694135).
TEST(SyncRoundReadings, PmRunsArePinnedOnBothBackends) {
    const struct {
        double tr;
        PinnedRounds want;
    } cases[] = {
        {0.1, {816, 0x1.d9dcd21439835p-3, 0x1p+0}},
        {1.1, {826, 0x1.63659d8f2b227p-1, 0x1.999999999999ap-5}},
    };
    for (const auto& c : cases) {
        for (const core::ExperimentBackend backend :
             {core::ExperimentBackend::Engine, core::ExperimentBackend::FastKernel}) {
            core::ExperimentConfig cfg;
            cfg.params.n = 20;
            cfg.params.tp = sim::SimTime::seconds(121);
            cfg.params.tc = sim::SimTime::seconds(0.11);
            cfg.params.tr = sim::SimTime::seconds(c.tr);
            cfg.params.seed = 42;
            cfg.max_time = sim::SimTime::seconds(1e5);
            cfg.monitor = true;
            cfg.backend = backend;
            const core::ExperimentResult r = core::run_experiment(cfg);
            ASSERT_TRUE(r.sync.has_value());
            EXPECT_EQ(r.sync->rounds_closed, r.rounds_closed);
            expect_rounds(*r.sync, c.want,
                          "tr=" + std::to_string(c.tr) + " backend=" +
                              std::to_string(static_cast<int>(backend)));
        }
    }
}

// The shared-LAN scenario groups re-arms at 50 ms, and its monitored
// readings are those 50 ms clusters: at Tr = 0.05 s the run stops at the
// full sync of all 10 stations (t = 3323.1 s), so the largest fraction is
// 1; at Tr = 0.5 s two stations share the last round's largest group.
TEST(SyncRoundReadings, SharedLanReadsTheScenariosClusters) {
    const struct {
        double tr;
        PinnedRounds want;
    } cases[] = {
        {0.05, {108, 0x1.c9e79eb17e467p-2, 0x1p+0}},
        {0.5, {662, 0x1.a7d9a8edb47bep-1, 0x1.999999999999ap-3}},
    };
    for (const auto& c : cases) {
        scenarios::SharedLanScenarioConfig cfg;
        cfg.n = 10;
        cfg.tr = sim::SimTime::seconds(c.tr);
        cfg.max_time = sim::SimTime::seconds(20000);
        cfg.monitor = true;
        const scenarios::SharedLanScenarioResult r = run_shared_lan_scenario(cfg);
        ASSERT_TRUE(r.sync.has_value());
        expect_rounds(*r.sync, c.want, "tr=" + std::to_string(c.tr));
    }
}

} // namespace
