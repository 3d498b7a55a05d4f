// Bounded large-N smoke: one 10^4-router trial through the experiment
// driver, the scale ctest runs on every build (the full 10^5..10^6 rungs
// live in bench/metroscale_sweep). Pins down what the metro-scale work
// promises: the trial completes, the packed kernel state stays small per
// router, and the tracker's per-size tables answer consistently at this
// width.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/core.hpp"
#include "sim/sim.hpp"

namespace {

using namespace routesync;

/// One Figure 15 trial (Tp = 121 s, Tc = 0.11 s, Tr = 0.3 s, unsynchronized
/// start) on the PM kernel.
core::ExperimentConfig metro_config(int n, double max_time_sec) {
    core::ExperimentConfig cfg;
    cfg.params.n = n;
    cfg.params.tp = sim::SimTime::seconds(121.0);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.tr = sim::SimTime::seconds(0.3);
    cfg.params.start = core::StartCondition::Unsynchronized;
    cfg.params.seed = 0xfe70;
    cfg.max_time = sim::SimTime::seconds(max_time_sec);
    cfg.backend = core::ExperimentBackend::FastKernel;
    return cfg;
}

TEST(MetroScale, TenThousandRouterTrialCompletesWithinBudget) {
    // ~3 synchronized cycles: the collapse (n * Tc = 1100 s busy chain)
    // plus two full re-arm rounds. Runs in well under a second.
    const auto cfg = metro_config(10000, 4000.0);
    const auto r = core::run_experiment(cfg);

    EXPECT_GT(r.rounds_closed, 0U);
    EXPECT_GT(r.total_transmissions, 0U);
    EXPECT_EQ(r.end_time_sec, cfg.max_time.sec());
    // At the Figure 15 parameters 1e4 routers synchronize immediately:
    // the whole first round is one busy chain.
    EXPECT_EQ(r.rounds_unsynchronized, 0U);

    // The per-router state budget that makes 1e6 routers feasible:
    // packed node arrays + calendar queue, well under 256 B/router (the fixed
    // 1024-bucket calendar overhead is amortized at this n).
    ASSERT_GT(r.kernel_state_bytes, 0U);
    EXPECT_LT(r.kernel_state_bytes,
              256U * static_cast<std::uint64_t>(cfg.params.n));

    // The per-size hitting tables answer across the whole [1, n] axis.
    ASSERT_EQ(r.first_hit_up.size(), static_cast<std::size_t>(cfg.params.n) + 1);
    EXPECT_TRUE(r.first_hit_up[1].has_value());
    int largest_hit = 0;
    for (int s = 1; s <= cfg.params.n; ++s) {
        if (r.first_hit_up[static_cast<std::size_t>(s)].has_value()) {
            largest_hit = s;
        }
    }
    // The collapse forms a metro-scale cluster (nearly all routers; a
    // few stragglers can re-arm just outside the tolerance window).
    EXPECT_GT(largest_hit, cfg.params.n / 2);

    // Above the auto-record threshold the per-round vector stays empty
    // unless explicitly requested — 1e5-round runs must not accumulate
    // per-round records by default.
    EXPECT_TRUE(r.rounds.empty());
}

TEST(MetroScale, CalendarStateStaysUnder512BytesPerRouterJustPastTheCliff) {
    // The calendar's smallest rungs, over the whole metroscale_sweep
    // window: a cluster of a few hundred routers re-arms into a different
    // ring slot every round, and no slot may keep that cluster's storage
    // once its day has drained.
    for (const int n : {core::kPmCalendarMinNodes, 1000}) {
        const auto cfg = metro_config(n, 2e4);
        const auto r = core::run_experiment(cfg);
        EXPECT_GT(r.rounds_closed, 50U) << "n " << n;
        EXPECT_EQ(r.rounds_unsynchronized, 0U) << "n " << n;
        EXPECT_LT(r.kernel_state_bytes, 512U * static_cast<std::uint64_t>(n))
            << "n " << n;
    }
}

} // namespace
