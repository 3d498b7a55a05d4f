// Tests for the Periodic Messages model — the paper's Section 3 mechanics.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/core.hpp"

namespace {

using namespace routesync;
using core::ModelParams;
using core::PeriodicMessagesModel;
using core::StartCondition;
using sim::SimTime;
using namespace sim::literals;

ModelParams canonical() {
    ModelParams p;
    p.n = 20;
    p.tp = 121_sec;
    p.tr = 0.11_sec;
    p.tc = 0.11_sec;
    return p;
}

// ------------------------------------------------- deterministic two-node

// The paper's Figure 5 narrative, replayed exactly: node B's timer expires
// while node A is transmitting; both reset their timers at t + 2*Tc and
// form a cluster.
TEST(PeriodicMessages, TwoNodeClusterFormsAtTPlus2Tc) {
    sim::Engine engine;
    ModelParams p = canonical();
    p.n = 2;
    p.tc = 0.11_sec;
    p.initial_phases = {10.0, 10.05}; // B fires 50 ms into A's busy period
    auto policy = std::make_unique<core::FixedInterval>(121_sec);
    PeriodicMessagesModel model{engine, p, std::move(policy)};

    std::vector<std::pair<int, double>> sets;
    model.on_timer_set = [&](int node, SimTime t) {
        sets.emplace_back(node, t.sec());
    };
    engine.run_until(50_sec);

    ASSERT_EQ(sets.size(), 2U);
    // Both reset at 10 + 2*Tc = 10.22, at the identical instant.
    EXPECT_NEAR(sets[0].second, 10.22, 1e-9);
    EXPECT_DOUBLE_EQ(sets[0].second, sets[1].second);
}

TEST(PeriodicMessages, TwoDistantNodesStayIndependent) {
    sim::Engine engine;
    ModelParams p = canonical();
    p.n = 2;
    p.initial_phases = {10.0, 50.0};
    auto policy = std::make_unique<core::FixedInterval>(121_sec);
    PeriodicMessagesModel model{engine, p, std::move(policy)};

    std::vector<std::pair<int, double>> sets;
    model.on_timer_set = [&](int node, SimTime t) {
        sets.emplace_back(node, t.sec());
    };
    engine.run_until(60_sec);

    ASSERT_EQ(sets.size(), 2U);
    // Each resets Tc after its own expiry; no interaction.
    EXPECT_NEAR(sets[0].second, 10.11, 1e-9);
    EXPECT_NEAR(sets[1].second, 50.11, 1e-9);
}

// A node that receives a message while idle processes it *without*
// resetting its timer (model step 4).
TEST(PeriodicMessages, IdleProcessingDoesNotResetTimer) {
    sim::Engine engine;
    ModelParams p = canonical();
    p.n = 2;
    p.initial_phases = {10.0, 30.0};
    auto policy = std::make_unique<core::FixedInterval>(100_sec);
    PeriodicMessagesModel model{engine, p, std::move(policy)};

    std::vector<std::pair<int, double>> tx;
    model.on_transmit = [&](int node, SimTime t) { tx.emplace_back(node, t.sec()); };
    engine.run_until(250_sec);

    // Node 1 transmits at 30 and then 130.11 + ... : its timer was set at
    // 30.11 regardless of having processed node 0's message at t=10.
    ASSERT_GE(tx.size(), 4U);
    EXPECT_NEAR(tx[0].second, 10.0, 1e-9);  // node 0
    EXPECT_NEAR(tx[1].second, 30.0, 1e-9);  // node 1
    EXPECT_NEAR(tx[2].second, 110.11, 1e-9); // node 0: 10 + Tc + 100
    EXPECT_NEAR(tx[3].second, 130.11, 1e-9); // node 1: 30 + Tc + 100
}

// Once synchronized with zero jitter, the cluster round length becomes
// Tp + N*Tc (the paper: "each router has a busy period of 20 x Tc seconds
// rather than of Tc seconds").
TEST(PeriodicMessages, SynchronizedClusterPeriodIsTpPlusNTc) {
    sim::Engine engine;
    ModelParams p = canonical();
    p.n = 20;
    p.start = StartCondition::Synchronized;
    auto policy = std::make_unique<core::FixedInterval>(121_sec);
    PeriodicMessagesModel model{engine, p, std::move(policy)};

    std::vector<double> node0_tx;
    model.on_transmit = [&](int node, SimTime t) {
        if (node == 0) {
            node0_tx.push_back(t.sec());
        }
    };
    engine.run_until(1000_sec);

    ASSERT_GE(node0_tx.size(), 3U);
    const double period = node0_tx[1] - node0_tx[0];
    EXPECT_NEAR(period, 121.0 + 20 * 0.11, 1e-9);
    EXPECT_NEAR(node0_tx[2] - node0_tx[1], period, 1e-9);
}

// --------------------------------------------------------- invariants

class SeededModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededModel, TransmitGapsRespectTimerBounds) {
    sim::Engine engine;
    ModelParams p = canonical();
    p.n = 10;
    p.seed = GetParam();
    PeriodicMessagesModel model{engine, p};

    std::vector<std::vector<double>> tx(10);
    model.on_transmit = [&](int node, SimTime t) {
        tx[static_cast<std::size_t>(node)].push_back(t.sec());
    };
    engine.run_until(20000_sec);

    // Gap between consecutive transmissions of one node: at least
    // Tp - Tr + Tc (one busy period), at most Tp + Tr + N*Tc (cluster).
    for (const auto& series : tx) {
        ASSERT_GE(series.size(), 2U);
        for (std::size_t i = 1; i < series.size(); ++i) {
            const double gap = series[i] - series[i - 1];
            EXPECT_GE(gap, 121.0 - 0.11 + 0.11 - 1e-9);
            EXPECT_LE(gap, 121.0 + 0.11 + 10 * 0.11 + 1e-9);
        }
    }
}

TEST_P(SeededModel, EveryNodeKeepsTransmitting) {
    sim::Engine engine;
    ModelParams p = canonical();
    p.n = 8;
    p.seed = GetParam();
    PeriodicMessagesModel model{engine, p};
    engine.run_until(15000_sec);
    const auto expected_rounds = 15000.0 / (121.0 + 8 * 0.11);
    for (int i = 0; i < 8; ++i) {
        EXPECT_GE(model.node(i).transmissions,
                  static_cast<std::uint64_t>(expected_rounds * 0.9));
    }
}

TEST_P(SeededModel, DeterministicReplay) {
    auto run = [&](std::uint64_t seed) {
        sim::Engine engine;
        ModelParams p = canonical();
        p.n = 6;
        p.seed = seed;
        PeriodicMessagesModel model{engine, p};
        std::vector<double> times;
        model.on_transmit = [&](int, SimTime t) { times.push_back(t.sec()); };
        engine.run_until(5000_sec);
        return times;
    };
    const auto a = run(GetParam());
    const auto b = run(GetParam());
    EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededModel,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 77ULL, 1234ULL));

// -------------------------------------------------- behavioural regimes

// Tr < Tc/2: a synchronized network can never break up (paper Section 5:
// "if not, then a cluster never breaks up into smaller clusters").
TEST(PeriodicMessages, SyncWithTinyJitterNeverBreaks) {
    core::ExperimentConfig cfg;
    cfg.params = canonical();
    cfg.params.start = StartCondition::Synchronized;
    cfg.params.tr = 0.05_sec; // Tc/2 = 0.055
    cfg.params.seed = 9;
    cfg.max_time = 50000_sec;
    cfg.record_rounds = true;
    const auto r = core::run_experiment(cfg);
    ASSERT_GT(r.rounds_closed, 100U);
    for (const auto& round : r.rounds) {
        EXPECT_EQ(round.largest, 20);
    }
}

// Small Tr, unsynchronized start: the system synchronizes (Figure 4).
TEST(PeriodicMessages, UnsyncWithSmallJitterSynchronizes) {
    core::ExperimentConfig cfg;
    cfg.params = canonical();
    cfg.params.tr = 0.1_sec;
    cfg.params.seed = 42;
    cfg.max_time = 300000_sec;
    cfg.stop_on_full_sync = true;
    const auto r = core::run_experiment(cfg);
    ASSERT_TRUE(r.full_sync_time_sec.has_value());
    EXPECT_LT(*r.full_sync_time_sec, 300000.0);
}

// Large Tr, synchronized start: the system unsynchronizes (Figure 8).
TEST(PeriodicMessages, SyncWithLargeJitterBreaksUp) {
    core::ExperimentConfig cfg;
    cfg.params = canonical();
    cfg.params.start = StartCondition::Synchronized;
    cfg.params.tr = 1.1_sec; // 10 * Tc
    cfg.params.seed = 5;
    cfg.max_time = 200000_sec;
    cfg.stop_on_breakup_threshold = 1;
    const auto r = core::run_experiment(cfg);
    ASSERT_TRUE(r.breakup_time_sec.has_value());
    EXPECT_LT(*r.breakup_time_sec, 200000.0);
}

// Half-period jitter (the Section 6 recommendation) destroys
// synchronization almost immediately.
TEST(PeriodicMessages, HalfPeriodJitterBreaksSyncFast) {
    core::ExperimentConfig cfg;
    cfg.params = canonical();
    cfg.params.start = StartCondition::Synchronized;
    cfg.params.seed = 11;
    cfg.max_time = 100000_sec;
    cfg.stop_on_breakup_threshold = 2;
    cfg.make_policy = [] {
        return std::make_unique<core::HalfPeriodJitter>(121_sec);
    };
    const auto r = core::run_experiment(cfg);
    ASSERT_TRUE(r.breakup_time_sec.has_value());
    EXPECT_LT(*r.breakup_time_sec, 5000.0); // a few rounds
}

// Reset-at-expiry (RFC 1058 alternative): no coupling, so an
// unsynchronized system stays unsynchronized even with zero jitter...
TEST(PeriodicMessages, ResetAtExpiryNeverSynchronizes) {
    core::ExperimentConfig cfg;
    cfg.params = canonical();
    cfg.params.tr = SimTime::zero();
    cfg.params.reset_at_expiry = true;
    cfg.params.seed = 31;
    cfg.max_time = 100000_sec;
    cfg.record_rounds = true;
    const auto r = core::run_experiment(cfg);
    EXPECT_FALSE(r.full_sync_time_sec.has_value());
    for (const auto& round : r.rounds) {
        EXPECT_LE(round.largest, 3); // birthday coincidences only
    }
}

// ...but a synchronized system stays synchronized forever (the drawback
// the paper calls out: "there is no mechanism to break up synchronization
// if it does occur").
TEST(PeriodicMessages, ResetAtExpiryPreservesInitialSync) {
    core::ExperimentConfig cfg;
    cfg.params = canonical();
    cfg.params.start = StartCondition::Synchronized;
    cfg.params.tr = SimTime::zero();
    cfg.params.reset_at_expiry = true;
    cfg.params.seed = 31;
    cfg.max_time = 50000_sec;
    cfg.record_rounds = true;
    const auto r = core::run_experiment(cfg);
    ASSERT_GT(r.rounds_closed, 100U);
    for (const auto& round : r.rounds) {
        EXPECT_EQ(round.largest, 20);
    }
}

// ---------------------------------------------- Eq. 2's premises, measured

// The Markov chain's upward transition rests on two claims about cluster
// kinematics (paper Section 5.1). Both are measurable in the simulation.
//
// Claim 1: a cluster of i nodes has mean period
//          Tp - Tr*(i-1)/(i+1) + i*Tc.
void expect_cluster_period_matches_formula(int i) {
    sim::Engine engine;
    ModelParams p;
    p.n = i; // the whole network is one cluster
    p.tp = 121_sec;
    p.tr = 0.05_sec; // below Tc/2: the cluster can never break
    p.tc = 0.11_sec;
    p.start = StartCondition::Synchronized;
    p.seed = 1000 + static_cast<std::uint64_t>(i);
    PeriodicMessagesModel model{engine, p};

    std::vector<double> resets;
    model.on_timer_set = [&](int node, SimTime t) {
        if (node == 0) {
            resets.push_back(t.sec());
        }
    };
    engine.run_until(SimTime::seconds(121.0 * 400));

    ASSERT_GE(resets.size(), 100U);
    double mean_period = (resets.back() - resets.front()) /
                         static_cast<double>(resets.size() - 1);
    const double predicted =
        121.0 - 0.05 * (i - 1) / (i + 1) + 0.11 * i;
    // Statistical tolerance: the per-round min-of-i draw has std
    // ~2*Tr/(i+1); with ~390 rounds the mean is tight.
    EXPECT_NEAR(mean_period, predicted, 0.01) << "i = " << i;
}

class ClusterKinematics : public ::testing::TestWithParam<int> {};

TEST_P(ClusterKinematics, ClusterPeriodMatchesFormula) {
    expect_cluster_period_matches_formula(GetParam());
}

// At i = 1 the "cluster" is one lone node, whose period is Tp + Tc.
TEST(ClusterKinematics, LoneNodePeriodMatchesFormula) {
    expect_cluster_period_matches_formula(1);
}

// Claim 2: relative to a lone node, the cluster's phase advances by
//          (i-1)*Tc - Tr*(i-1)/(i+1) per round.
TEST_P(ClusterKinematics, ClusterDriftMatchesFormula) {
    const int i = GetParam();
    sim::Engine engine;
    ModelParams p;
    p.n = i + 1;
    p.tp = 121_sec;
    p.tr = 0.05_sec;
    p.tc = 0.11_sec;
    // Cluster at phase 0, the lone node 50 s later (far outside reach for
    // the measurement window).
    p.initial_phases.assign(static_cast<std::size_t>(i), 0.0);
    p.initial_phases.push_back(50.0);
    p.seed = 2000 + static_cast<std::uint64_t>(i);
    PeriodicMessagesModel model{engine, p};

    std::vector<double> cluster_resets;
    std::vector<double> lone_resets;
    model.on_timer_set = [&](int node, SimTime t) {
        if (node == 0) {
            cluster_resets.push_back(t.sec());
        } else if (node == i) {
            lone_resets.push_back(t.sec());
        }
    };
    const int rounds = 30;
    engine.run_until(SimTime::seconds(121.0 * (rounds + 3)));

    ASSERT_GE(cluster_resets.size(), static_cast<std::size_t>(rounds));
    ASSERT_GE(lone_resets.size(), static_cast<std::size_t>(rounds));
    // Gap between the lone node's reset and the cluster's, per round.
    const double gap_first = lone_resets[0] - cluster_resets[0];
    const auto last = static_cast<std::size_t>(rounds - 1);
    const double gap_last = lone_resets[last] - cluster_resets[last];
    const double drift_per_round = (gap_first - gap_last) / (rounds - 1);
    const double predicted = (i - 1) * 0.11 - 0.05 * (i - 1) / (i + 1);
    EXPECT_NEAR(drift_per_round, predicted, 0.03) << "i = " << i;
}

// Claim 2 needs a cluster to drift, so the sizes start at 2; claim 1's
// i = 1 case is LoneNodePeriodMatchesFormula above.
INSTANTIATE_TEST_SUITE_P(ClusterSizes, ClusterKinematics,
                         ::testing::Values(2, 3, 5, 8, 12));

// ------------------------------------------------------ triggered updates

TEST(PeriodicMessages, TriggeredUpdateSynchronizesEveryone) {
    sim::Engine engine;
    ModelParams p = canonical();
    p.seed = 3;
    PeriodicMessagesModel model{engine, p};

    core::ClusterTracker tracker{p.n, model.round_length()};
    model.on_timer_set = [&](int node, SimTime t) { tracker.on_timer_set(node, t); };

    engine.schedule_at(1000_sec, [&] { model.trigger_update_all(); });
    engine.run_until(1100_sec);
    tracker.finish();

    const auto full = tracker.full_sync_time();
    ASSERT_TRUE(full.has_value());
    // All N reset their timers together right after the triggered wave:
    // 1000 + 20*Tc (plus any overlap with pre-trigger busy time).
    EXPECT_NEAR(full->sec(), 1000.0 + 20 * 0.11, 1.0);
}

TEST(PeriodicMessages, TriggeredUpdateOnSubsetClustersSubset) {
    sim::Engine engine;
    ModelParams p = canonical();
    p.n = 10;
    p.seed = 8;
    PeriodicMessagesModel model{engine, p};

    core::ClusterTracker tracker{p.n, model.round_length()};
    model.on_timer_set = [&](int node, SimTime t) { tracker.on_timer_set(node, t); };

    const std::vector<int> subset{0, 1, 2, 3};
    engine.schedule_at(500_sec, [&] { model.trigger_update(subset); });
    engine.run_until(600_sec);
    tracker.finish();

    const auto hit = tracker.first_time_size_at_least(4);
    ASSERT_TRUE(hit.has_value());
    EXPECT_NEAR(hit->sec(), 500.0 + 4 * 0.11, 1.0);
}

// --------------------------------------------- distinct per-node periods

// The Section 6 open question ("slightly-different fixed period for each
// router"): periods spaced below Tc entrain; above Tc they disperse.
TEST(DistinctPeriods, SubTcSpacingEntrains) {
    core::ExperimentConfig cfg;
    cfg.params.n = 10;
    cfg.params.tp = 121_sec;
    cfg.params.tc = 0.11_sec;
    cfg.params.tr = SimTime::zero();
    cfg.params.start = StartCondition::Synchronized;
    for (int k = 0; k < 10; ++k) {
        cfg.params.per_node_tp.push_back(121.0 + 0.05 * k);
    }
    cfg.params.seed = 4;
    cfg.max_time = 50000_sec;
    cfg.record_rounds = true;
    const auto r = core::run_experiment(cfg);
    ASSERT_FALSE(r.rounds.empty());
    for (const auto& round : r.rounds) {
        EXPECT_EQ(round.largest, 10);
    }
}

TEST(DistinctPeriods, SuperTcSpacingDisperses) {
    core::ExperimentConfig cfg;
    cfg.params.n = 10;
    cfg.params.tp = 121_sec;
    cfg.params.tc = 0.11_sec;
    cfg.params.tr = SimTime::zero();
    cfg.params.start = StartCondition::Synchronized;
    for (int k = 0; k < 10; ++k) {
        cfg.params.per_node_tp.push_back(121.0 + 0.3 * k);
    }
    cfg.params.seed = 4;
    cfg.max_time = 100000_sec;
    cfg.stop_on_breakup_threshold = 1;
    const auto r = core::run_experiment(cfg);
    ASSERT_TRUE(r.breakup_time_sec.has_value());
    EXPECT_LT(*r.breakup_time_sec, 2000.0); // gone within a handful of rounds
}

TEST(DistinctPeriods, LonePeriodsAreHonoured) {
    sim::Engine engine;
    ModelParams p;
    p.n = 2;
    p.tp = 121_sec;
    p.tr = SimTime::zero();
    p.tc = 0.11_sec;
    p.initial_phases = {0.0, 50.0}; // never interact in this window
    p.per_node_tp = {100.0, 130.0};
    PeriodicMessagesModel model{engine, p};
    std::vector<std::vector<double>> tx(2);
    model.on_transmit = [&](int node, SimTime t) {
        tx[static_cast<std::size_t>(node)].push_back(t.sec());
    };
    engine.run_until(300_sec);
    ASSERT_GE(tx[0].size(), 2U);
    ASSERT_GE(tx[1].size(), 2U);
    EXPECT_NEAR(tx[0][1] - tx[0][0], 100.0 + 0.11, 1e-9);
    EXPECT_NEAR(tx[1][1] - tx[1][0], 130.0 + 0.11, 1e-9);
}

TEST(DistinctPeriods, WrongSizeRejected) {
    sim::Engine engine;
    ModelParams p;
    p.n = 5;
    p.per_node_tp = {121.0, 122.0};
    EXPECT_THROW(PeriodicMessagesModel(engine, p), std::invalid_argument);
    p = ModelParams{};
    p.n = 5;
    p.per_node_tc = {0.1, 0.2};
    EXPECT_THROW(PeriodicMessagesModel(engine, p), std::invalid_argument);
}

// ------------------------------------------- heterogeneous processing

// Mixed route-processor speeds split a synchronized network into one
// cluster per hardware class (each class's members share busy-period
// arithmetic; across classes the busy periods end at different instants).
TEST(HeterogeneousTc, ClassesFormSeparateClusters) {
    sim::Engine engine;
    ModelParams p;
    p.n = 6;
    p.tp = 121_sec;
    p.tr = 0.02_sec;
    p.start = StartCondition::Synchronized;
    p.per_node_tc = {0.1, 0.1, 0.1, 0.3, 0.3, 0.3};
    p.seed = 5;
    PeriodicMessagesModel model{engine, p};

    std::vector<double> last_set(6, -1.0);
    model.on_timer_set = [&](int node, SimTime t) {
        last_set[static_cast<std::size_t>(node)] = t.sec();
    };
    engine.run_until(5000_sec);

    // Fast class resets together, slow class together, at different times.
    EXPECT_DOUBLE_EQ(last_set[0], last_set[1]);
    EXPECT_DOUBLE_EQ(last_set[1], last_set[2]);
    EXPECT_DOUBLE_EQ(last_set[3], last_set[4]);
    EXPECT_DOUBLE_EQ(last_set[4], last_set[5]);
    EXPECT_NE(last_set[0], last_set[3]);
}

TEST(HeterogeneousTc, UniformVectorMatchesScalarTc) {
    auto run = [](bool use_vector) {
        sim::Engine engine;
        ModelParams p;
        p.n = 4;
        p.tp = 121_sec;
        p.tr = 0.1_sec;
        p.tc = 0.11_sec;
        if (use_vector) {
            p.per_node_tc = {0.11, 0.11, 0.11, 0.11};
        }
        p.seed = 9;
        PeriodicMessagesModel model{engine, p};
        std::vector<double> times;
        model.on_transmit = [&](int, SimTime t) { times.push_back(t.sec()); };
        engine.run_until(3000_sec);
        return times;
    };
    EXPECT_EQ(run(false), run(true));
}

// ------------------------------------------------------------- validation

TEST(PeriodicMessages, RejectsInvalidParams) {
    sim::Engine engine;
    ModelParams p = canonical();
    p.n = 0;
    EXPECT_THROW(PeriodicMessagesModel(engine, p), std::invalid_argument);
    p = canonical();
    p.tc = SimTime::seconds(-0.1);
    EXPECT_THROW(PeriodicMessagesModel(engine, p), std::invalid_argument);
    p = canonical();
    p.initial_phases = {1.0, 2.0}; // wrong size for n=20
    EXPECT_THROW(PeriodicMessagesModel(engine, p), std::invalid_argument);
}

TEST(PeriodicMessages, OffsetOfWrapsAtRoundLength) {
    sim::Engine engine;
    ModelParams p = canonical();
    PeriodicMessagesModel model{engine, p};
    const double round = model.round_length().sec();
    EXPECT_NEAR(round, 121.11, 1e-12);
    EXPECT_NEAR(model.offset_of(SimTime::seconds(round + 5.0)).sec(), 5.0, 1e-9);
    // An exact multiple of the round folds to ~0 or ~round (FP rounding may
    // land the fmod on either side of the wrap).
    const double folded = model.offset_of(SimTime::seconds(2.5 * round)).sec();
    EXPECT_NEAR(folded, round / 2, 1e-9);
}

TEST(PeriodicMessages, NodeViewReflectsState) {
    sim::Engine engine;
    ModelParams p = canonical();
    p.n = 2;
    p.initial_phases = {10.0, 50.0};
    PeriodicMessagesModel model{engine, p};
    engine.run_until(5_sec);
    const auto v = model.node(0);
    EXPECT_FALSE(v.busy);
    EXPECT_EQ(v.transmissions, 0U);
    EXPECT_NEAR(v.next_expiry.sec(), 10.0, 1e-12);
    engine.run_until(SimTime::seconds(10.05));
    EXPECT_TRUE(model.node(0).busy);
    EXPECT_EQ(model.node(0).transmissions, 1U);
}

} // namespace
