// Tests for the Markov chain model (paper Section 5).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/core.hpp"
#include "markov/markov.hpp"

namespace {

using namespace routesync::markov;
namespace core = routesync::core;
namespace sim = routesync::sim;

ChainParams canonical() {
    ChainParams p;
    p.n = 20;
    p.tp_sec = 121.0;
    p.tr_sec = 0.11;
    p.tc_sec = 0.11;
    p.f2_rounds = 19.0;
    return p;
}

// ------------------------------------------------- transition structure

TEST(FJChain, TransitionProbabilitiesAreProbabilities) {
    const FJChain chain{canonical()};
    for (int i = 1; i <= 20; ++i) {
        EXPECT_GE(chain.p_down(i), 0.0) << i;
        EXPECT_LE(chain.p_down(i), 1.0) << i;
        EXPECT_GE(chain.p_up(i), 0.0) << i;
        EXPECT_LE(chain.p_up(i), 1.0) << i;
        EXPECT_LE(chain.p_down(i) + chain.p_up(i), 1.0) << i;
    }
}

TEST(FJChain, PDownDecreasesWithClusterSize) {
    const FJChain chain{canonical()};
    for (int i = 3; i <= 20; ++i) {
        EXPECT_LT(chain.p_down(i), chain.p_down(i - 1)) << i;
    }
}

TEST(FJChain, PDownMatchesEquationOne) {
    ChainParams p = canonical();
    p.tr_sec = 0.1;
    const FJChain chain{p};
    const double base = 1.0 - 0.11 / 0.2;
    for (int i = 2; i <= 20; ++i) {
        EXPECT_NEAR(chain.p_down(i), std::pow(base, i), 1e-12) << i;
    }
}

TEST(FJChain, PDownZeroWhenJitterBelowHalfTc) {
    ChainParams p = canonical();
    p.tr_sec = 0.05; // Tc/2 = 0.055
    const FJChain chain{p};
    for (int i = 2; i <= 20; ++i) {
        EXPECT_EQ(chain.p_down(i), 0.0);
    }
}

TEST(FJChain, PUpMatchesEquationTwo) {
    const FJChain chain{canonical()};
    for (int i = 2; i <= 19; ++i) {
        const double drift = (i - 1) * 0.11 - 0.11 * (i - 1) / (i + 1);
        const double expected =
            drift <= 0 ? 0.0 : 1.0 - std::exp(-((20.0 - i + 1) / 121.0) * drift);
        EXPECT_NEAR(chain.p_up(i), expected, 1e-12) << i;
    }
}

TEST(FJChain, PUpZeroAtTopState) {
    const FJChain chain{canonical()};
    EXPECT_EQ(chain.p_up(20), 0.0);
}

TEST(FJChain, PUpClampsWhenDriftNegative) {
    ChainParams p = canonical();
    p.tr_sec = 0.5; // drift at i=2: Tc - Tr/3 = 0.11 - 0.167 < 0
    const FJChain chain{p};
    EXPECT_EQ(chain.p_up(2), 0.0);
    EXPECT_LT(chain.drift_seconds(2), 0.0);
}

TEST(FJChain, P12ComesFromF2) {
    const FJChain chain{canonical()};
    EXPECT_NEAR(chain.p_up(1), 1.0 / 19.0, 1e-12);
}

TEST(FJChain, ConditionalStepTimesMatchPaperFormula) {
    const FJChain chain{canonical()};
    for (int j = 2; j <= 19; ++j) {
        const double up = chain.p_up(j);
        const double down = chain.p_down(j);
        const double move = up + down;
        EXPECT_NEAR(chain.t_up(j), up / (move * move), 1e-12);
        EXPECT_NEAR(chain.t_down(j), down / (move * move), 1e-12);
    }
}

// ------------------------------------------------------- hitting times

TEST(FJChain, FStartsAtZeroAndF2IsInput) {
    const FJChain chain{canonical()};
    const auto f = chain.f_rounds();
    EXPECT_EQ(f[1], 0.0);
    EXPECT_DOUBLE_EQ(f[2], 19.0);
}

TEST(FJChain, FIsStrictlyIncreasing) {
    const FJChain chain{canonical()};
    const auto f = chain.f_rounds();
    for (int i = 2; i <= 20; ++i) {
        EXPECT_GT(f[static_cast<std::size_t>(i)], f[static_cast<std::size_t>(i - 1)]);
    }
}

TEST(FJChain, GEndsAtZeroAndIsDecreasingInState) {
    const FJChain chain{canonical()};
    const auto g = chain.g_rounds();
    EXPECT_EQ(g[20], 0.0);
    for (int i = 1; i < 20; ++i) {
        EXPECT_GT(g[static_cast<std::size_t>(i)], g[static_cast<std::size_t>(i + 1)]);
    }
}

TEST(FJChain, GFromNMinusOneIsInverseOfPDownN) {
    const FJChain chain{canonical()};
    const auto g = chain.g_rounds();
    EXPECT_NEAR(g[19], 1.0 / chain.p_down(20), 1e-9);
}

TEST(FJChain, ClosedFormsMatchRecursions) {
    for (const double tr : {0.08, 0.1, 0.11, 0.15, 0.2, 0.3}) {
        ChainParams p = canonical();
        p.tr_sec = tr;
        const FJChain chain{p};
        const auto f = chain.f_rounds();
        const auto fc = chain.f_rounds_closed_form();
        const auto g = chain.g_rounds();
        const auto gc = chain.g_rounds_closed_form();
        for (int i = 1; i <= 20; ++i) {
            const auto s = static_cast<std::size_t>(i);
            if (std::isinf(f[s])) {
                EXPECT_TRUE(std::isinf(fc[s])) << "Tr=" << tr << " i=" << i;
            } else if (f[s] > 0.0) {
                EXPECT_NEAR(fc[s] / f[s], 1.0, 1e-9) << "Tr=" << tr << " i=" << i;
            } else {
                EXPECT_EQ(fc[s], 0.0) << "Tr=" << tr << " i=" << i;
            }
            if (std::isinf(g[s])) {
                EXPECT_TRUE(std::isinf(gc[s])) << "Tr=" << tr << " i=" << i;
            } else if (g[s] > 0.0) {
                EXPECT_NEAR(gc[s] / g[s], 1.0, 1e-9) << "Tr=" << tr << " i=" << i;
            }
        }
    }
}

// The paper's Figure 10 scale: with Tr = 0.1 s and f(2) = 19, the time to
// full synchronization (Tp + Tc) * f(20) lands within the figure's
// 0..600000 s axis.
TEST(FJChain, Figure10ScaleReproduced) {
    ChainParams p = canonical();
    p.tr_sec = 0.1;
    const FJChain chain{p};
    const double sync_sec = chain.time_to_synchronize_seconds();
    EXPECT_GT(sync_sec, 2e5);
    EXPECT_LT(sync_sec, 6.5e5);
}

// Figure 11: Tr = 0.3 s; g(1) in seconds is a few hundred thousand —
// "two or three times" the simulated ~1.5e5 s.
TEST(FJChain, Figure11ScaleReproduced) {
    ChainParams p = canonical();
    p.tr_sec = 0.3;
    const FJChain chain{p};
    const double breakup_sec = chain.time_to_break_up_seconds();
    EXPECT_GT(breakup_sec, 1e5);
    EXPECT_LT(breakup_sec, 1e6);
}

// ------------------------------------------------------------ divergence

TEST(FJChain, TinyJitterMakesBreakupImpossible) {
    ChainParams p = canonical();
    p.tr_sec = 0.05;
    const FJChain chain{p};
    EXPECT_TRUE(std::isinf(chain.g_rounds()[1]));
    EXPECT_EQ(chain.fraction_unsynchronized(), 0.0);
}

TEST(FJChain, HugeJitterMakesSynchronizationImpossible) {
    ChainParams p = canonical();
    p.tr_sec = 3.0; // drift negative for every i < 26
    const FJChain chain{p};
    EXPECT_TRUE(std::isinf(chain.f_rounds()[20]));
    EXPECT_EQ(chain.fraction_unsynchronized(), 1.0);
}

TEST(FJChain, FractionIsMonotoneInTr) {
    double last = -1.0;
    for (const double tr : {0.06, 0.11, 0.22, 0.33, 0.44, 0.55}) {
        ChainParams p = canonical();
        p.tr_sec = tr;
        const double frac = FJChain{p}.fraction_unsynchronized();
        EXPECT_GE(frac, last - 1e-12) << tr;
        EXPECT_GE(frac, 0.0);
        EXPECT_LE(frac, 1.0);
        last = frac;
    }
}

// The paper's headline phase transition (Figure 14): between Tr ~ Tc and
// Tr ~ 3 Tc the equilibrium flips from synchronized to unsynchronized.
TEST(FJChain, SharpTransitionInTr) {
    ChainParams lo = canonical();
    lo.tr_sec = 0.11; // Tr = Tc
    ChainParams hi = canonical();
    hi.tr_sec = 0.33; // Tr = 3 Tc
    EXPECT_LT(FJChain{lo}.fraction_unsynchronized(), 0.01);
    EXPECT_GT(FJChain{hi}.fraction_unsynchronized(), 0.99);
}

// Figure 15: more nodes push the system towards synchrony at fixed Tr.
// (Near the saturated ends the estimate flattens out to ~0 or ~1, so the
// monotonicity check carries a small tolerance.)
TEST(FJChain, FractionIsMonotoneDecreasingInN) {
    double last = 2.0;
    for (const int n : {5, 10, 15, 20, 25, 30}) {
        ChainParams p = canonical();
        p.n = n;
        p.tr_sec = 0.18;
        const double frac = FJChain{p}.fraction_unsynchronized();
        EXPECT_LE(frac, last + 1e-6) << n;
        last = frac;
    }
}

// The Figure 15 phase transition itself: at a fixed jitter there is an N
// below which the network stays unsynchronized and above which it locks.
TEST(FJChain, PhaseTransitionExistsInN) {
    ChainParams p = canonical();
    p.tr_sec = 0.18;
    ChainParams small = p;
    small.n = 4;
    ChainParams large = p;
    large.n = 60;
    EXPECT_GT(FJChain{small}.fraction_unsynchronized(), 0.9);
    EXPECT_LT(FJChain{large}.fraction_unsynchronized(), 0.1);
}

// --------------------------------------------------------- stationary

TEST(FJChain, StationaryDistributionSumsToOne) {
    const FJChain chain{canonical()};
    const auto pi = chain.stationary_distribution();
    double sum = 0.0;
    for (int i = 1; i <= 20; ++i) {
        const double x = pi[static_cast<std::size_t>(i)];
        EXPECT_GE(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(FJChain, StationaryMassAtTopWhenSynchronized) {
    // Canonical parameters strongly favour synchronization.
    const FJChain chain{canonical()};
    const auto pi = chain.stationary_distribution();
    EXPECT_GT(pi[20], 0.9);
}

TEST(FJChain, MeanStationaryClusterSizeTracksTheRegime) {
    ChainParams sync_regime = canonical(); // Tr = Tc: strongly synchronized
    ChainParams unsync_regime = canonical();
    unsync_regime.tr_sec = 0.5; // far beyond the transition
    EXPECT_GT(FJChain{sync_regime}.mean_stationary_cluster_size(), 18.0);
    EXPECT_LT(FJChain{unsync_regime}.mean_stationary_cluster_size(), 3.0);
}

TEST(FJChain, StationarySatisfiesDetailedBalance) {
    ChainParams p = canonical();
    p.tr_sec = 0.25;
    const FJChain chain{p};
    const auto pi = chain.stationary_distribution();
    for (int i = 1; i < 20; ++i) {
        const auto s = static_cast<std::size_t>(i);
        const double flow_up = pi[s] * chain.p_up(i);
        const double flow_down = pi[s + 1] * chain.p_down(i + 1);
        EXPECT_NEAR(flow_up, flow_down, 1e-12 + 1e-9 * flow_up) << i;
    }
}

// ------------------------------------------------------------ occupancy

TEST(FJChain, OccupancyStartsAsDelta) {
    const FJChain chain{canonical()};
    const auto occ = chain.occupancy_after(0, 7);
    for (int i = 1; i <= 20; ++i) {
        EXPECT_DOUBLE_EQ(occ[static_cast<std::size_t>(i)], i == 7 ? 1.0 : 0.0);
    }
}

TEST(FJChain, OccupancyIsAlwaysADistribution) {
    const FJChain chain{canonical()};
    for (const std::uint64_t rounds : {1ULL, 10ULL, 100ULL, 5000ULL}) {
        const auto occ = chain.occupancy_after(rounds, 1);
        double sum = 0.0;
        for (int i = 1; i <= 20; ++i) {
            const double x = occ[static_cast<std::size_t>(i)];
            EXPECT_GE(x, 0.0);
            sum += x;
        }
        EXPECT_NEAR(sum, 1.0, 1e-12) << rounds;
    }
}

TEST(FJChain, OccupancyConvergesToStationary) {
    // Parameters with a short mixing time (small N, moderate jitter:
    // g(1) ~ 20 rounds), so two million rounds are deep in equilibrium.
    ChainParams p = canonical();
    p.n = 5;
    p.tr_sec = 0.15;
    p.f2_rounds = 10.0;
    const FJChain chain{p};
    const auto pi = chain.stationary_distribution();
    const auto occ = chain.occupancy_after(2000000, 1);
    for (int i = 1; i <= 5; ++i) {
        EXPECT_NEAR(occ[static_cast<std::size_t>(i)],
                    pi[static_cast<std::size_t>(i)], 1e-9)
            << i;
    }
}

TEST(FJChain, OccupancyDriftsUpwardAtLowJitter) {
    const FJChain chain{canonical()}; // strongly synchronizing
    const auto early = chain.occupancy_after(100, 1);
    const auto late = chain.occupancy_after(100000, 1);
    auto mean_state = [](const std::vector<double>& occ) {
        double m = 0.0;
        for (std::size_t i = 1; i < occ.size(); ++i) {
            m += static_cast<double>(i) * occ[i];
        }
        return m;
    };
    EXPECT_GT(mean_state(late), mean_state(early));
    EXPECT_GT(late[20], 0.5);
}

TEST(FJChain, OccupancyRejectsBadStartState) {
    const FJChain chain{canonical()};
    EXPECT_THROW((void)chain.occupancy_after(1, 0), std::out_of_range);
    EXPECT_THROW((void)chain.occupancy_after(1, 21), std::out_of_range);
}

// ----------------------------------------------------------- validation

TEST(FJChain, RejectsInvalidParameters) {
    ChainParams p = canonical();
    p.n = 1;
    EXPECT_THROW(FJChain{p}, std::invalid_argument);
    p = canonical();
    p.tp_sec = 0.0;
    EXPECT_THROW(FJChain{p}, std::invalid_argument);
    p = canonical();
    p.f2_rounds = -1.0;
    EXPECT_THROW(FJChain{p}, std::invalid_argument);
}

// ------------------------------------- Eq. 1 validated by the simulation

// A cluster of i nodes (the whole network) sheds its head when the first
// timer spacing exceeds Tc; Eq. 1 says that happens with probability
// (1 - Tc/(2 Tr))^i per round, so the mean rounds-to-first-break is its
// inverse. Two regimes:
//   * i = 2: the first spacing is the ONLY break mode, so the simulation
//     adjudicates the exponent exactly (i, not i-1 — the two differ by 2x).
//   * i >= 3: interior spacings can also sever the processing chain, so
//     Eq. 1 under-counts breaks and the measured time is shorter — the
//     same conservatism that makes the chain over-predict g(1) in
//     Figure 11. The simulation must land at or below the prediction,
//     never far above.
//
// gtest names each case by the bytes of its parameter. Bytes 4-7 of
// BreakupCase used to be padding, so the case names followed whatever
// the stack held at registration and shifted with unrelated edits to the
// libraries this test links. `name_bytes` fills that gap explicitly and
// keeps each case under the name it was first registered with.
struct BreakupCase {
    int i;
    std::uint32_t name_bytes;
    double tr;
};
static_assert(sizeof(BreakupCase) == 16);
class EquationOne : public ::testing::TestWithParam<BreakupCase> {};

namespace {
double mean_rounds_to_first_break(int i, double tr) {
    double total_rounds = 0.0;
    const int reps = 40;
    for (int rep = 0; rep < reps; ++rep) {
        core::ExperimentConfig cfg;
        cfg.params.n = i;
        cfg.params.tp = sim::SimTime::seconds(121);
        cfg.params.tc = sim::SimTime::seconds(0.11);
        cfg.params.tr = sim::SimTime::seconds(tr);
        cfg.params.start = core::StartCondition::Synchronized;
        cfg.params.seed = 500 + static_cast<std::uint64_t>(rep);
        cfg.max_time = sim::SimTime::seconds(1e6);
        cfg.stop_on_breakup_threshold = i - 1;
        const auto r = core::run_experiment(cfg);
        if (!r.breakup_time_sec.has_value()) {
            ADD_FAILURE() << "no breakup, rep " << rep;
            continue;
        }
        total_rounds += *r.breakup_time_sec / r.round_length_sec;
    }
    return total_rounds / reps;
}
} // namespace

TEST_P(EquationOne, MeanRoundsToFirstBreakMatchesOrUndershoots) {
    const int i = GetParam().i;
    const double tr = GetParam().tr;
    const double p = std::pow(1.0 - 0.11 / (2.0 * tr), i);
    const double predicted = 1.0 / p;
    const double mean = mean_rounds_to_first_break(i, tr);
    if (i == 2) {
        // Exact regime: 35% Monte-Carlo band discriminates the exponent.
        EXPECT_GT(mean, predicted * 0.65) << "p=" << p;
        EXPECT_LT(mean, predicted * 1.45) << "p=" << p;
    } else {
        // Conservative regime: simulation breaks at least as fast.
        EXPECT_GT(mean, predicted * 0.3) << "p=" << p;
        EXPECT_LT(mean, predicted * 1.2) << "p=" << p;
    }
}

INSTANTIATE_TEST_SUITE_P(Cases, EquationOne,
                         ::testing::Values(BreakupCase{2, 0, 0.11},
                                           BreakupCase{2, 0, 0.25},
                                           BreakupCase{2, 0x00091E03, 0.4},
                                           BreakupCase{3, 0xCAD00000, 0.2},
                                           BreakupCase{5, 0, 0.25},
                                           BreakupCase{8, 0, 0.3}));

// -------------------------------------------------------- f2 estimator

TEST(F2Estimator, CanonicalEstimateNearPaperValue) {
    ChainParams p = canonical();
    p.tr_sec = 0.1;
    const auto est = estimate_f2(p, 20, /*seed=*/7);
    EXPECT_EQ(est.completed, 20);
    EXPECT_EQ(est.censored, 0);
    // The paper calibrated f(2) = 19 rounds; allow broad Monte-Carlo slack.
    EXPECT_GT(est.mean_rounds, 3.0);
    EXPECT_LT(est.mean_rounds, 80.0);
}

TEST(F2Estimator, MoreJitterFormsPairsFaster) {
    ChainParams slow = canonical();
    slow.tr_sec = 0.05;
    ChainParams fast = canonical();
    fast.tr_sec = 0.4;
    const auto a = estimate_f2(slow, 12, 3);
    const auto b = estimate_f2(fast, 12, 3);
    EXPECT_GT(a.mean_rounds, b.mean_rounds);
}

TEST(F2Estimator, RejectsZeroReps) {
    EXPECT_THROW((void)estimate_f2(canonical(), 0), std::invalid_argument);
}

// ----------------------------------------------------------- thresholds

TEST(Threshold, CriticalTrLiesBetweenRegimes) {
    const double tr_star = critical_tr_seconds(canonical(), 0.5);
    ChainParams below = canonical();
    below.tr_sec = tr_star * 0.8;
    ChainParams above = canonical();
    above.tr_sec = tr_star * 1.2;
    EXPECT_LT(FJChain{below}.fraction_unsynchronized(), 0.5);
    EXPECT_GE(FJChain{above}.fraction_unsynchronized(), 0.5);
    // The paper's rule of thumb: the safe zone starts within ~10 Tc.
    EXPECT_GT(tr_star, 0.11 / 2);
    EXPECT_LT(tr_star, 10 * 0.11);
}

TEST(Threshold, CriticalTrRejectsBadTarget) {
    EXPECT_THROW((void)critical_tr_seconds(canonical(), 0.0), std::invalid_argument);
    EXPECT_THROW((void)critical_tr_seconds(canonical(), 1.0), std::invalid_argument);
}

TEST(Threshold, CriticalNMatchesFractionFlip) {
    ChainParams p = canonical();
    p.tr_sec = 0.3;
    const int n_star = critical_n(p, 100);
    ChainParams at = p;
    at.n = n_star;
    ChainParams past = p;
    past.n = n_star + 1;
    EXPECT_GE(FJChain{at}.fraction_unsynchronized(), 0.5);
    EXPECT_LT(FJChain{past}.fraction_unsynchronized(), 0.5);
}

TEST(Threshold, CriticalNRejectsBadBounds) {
    EXPECT_THROW((void)critical_n(canonical(), 1), std::invalid_argument);
}

// Sweep: the transition threshold in Tr scales roughly with Tc (paper
// Figure 13: curves for different Tc collapse when Tr is in units of Tc).
class TcSweep : public ::testing::TestWithParam<double> {};

TEST_P(TcSweep, CriticalTrScalesWithTc) {
    ChainParams p = canonical();
    p.tc_sec = GetParam();
    p.tr_sec = p.tc_sec; // starting point only; threshold search varies Tr
    const double tr_star = critical_tr_seconds(p, 0.5);
    const double ratio = tr_star / p.tc_sec;
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 12.0);
}

INSTANTIATE_TEST_SUITE_P(TcValues, TcSweep,
                         ::testing::Values(0.01, 0.05, 0.11, 0.22, 0.5));

} // namespace
