// Tests for routing-timer policies.
#include <gtest/gtest.h>

#include "core/timer_policy.hpp"

namespace {

using namespace routesync;
using core::FixedInterval;
using core::HalfPeriodJitter;
using core::UniformJitter;
using sim::SimTime;
using namespace sim::literals;

TEST(UniformJitter, DrawsWithinBand) {
    UniformJitter p{121_sec, 0.5_sec};
    rng::DefaultEngine gen{1};
    for (int i = 0; i < 10000; ++i) {
        const auto t = p.next_interval(gen);
        EXPECT_GE(t, 120.5_sec);
        EXPECT_LE(t, 121.5_sec);
    }
}

TEST(UniformJitter, MeanApproachesTp) {
    UniformJitter p{30_sec, 10_sec};
    rng::DefaultEngine gen{7};
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        sum += p.next_interval(gen).sec();
    }
    EXPECT_NEAR(sum / n, 30.0, 0.05);
    EXPECT_EQ(p.mean_interval(), 30_sec);
}

TEST(UniformJitter, ZeroJitterIsConstant) {
    UniformJitter p{10_sec, SimTime::zero()};
    rng::DefaultEngine gen{1};
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(p.next_interval(gen), 10_sec);
    }
}

TEST(UniformJitter, RejectsInvalidParameters) {
    EXPECT_THROW(UniformJitter(10_sec, 11_sec), std::invalid_argument);
    EXPECT_THROW(UniformJitter(10_sec, SimTime::seconds(-1)), std::invalid_argument);
    EXPECT_THROW(UniformJitter(SimTime::zero(), SimTime::zero()),
                 std::invalid_argument);
}

TEST(HalfPeriodJitter, DrawsWithinHalfToThreeHalves) {
    HalfPeriodJitter p{30_sec};
    rng::DefaultEngine gen{3};
    for (int i = 0; i < 10000; ++i) {
        const auto t = p.next_interval(gen);
        EXPECT_GE(t, 15_sec);
        EXPECT_LE(t, 45_sec);
    }
    EXPECT_EQ(p.mean_interval(), 30_sec);
}

TEST(HalfPeriodJitter, RejectsNonPositivePeriod) {
    EXPECT_THROW(HalfPeriodJitter(SimTime::zero()), std::invalid_argument);
}

TEST(FixedInterval, AlwaysReturnsPeriod) {
    FixedInterval p{42_sec};
    rng::DefaultEngine gen{1};
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(p.next_interval(gen), 42_sec);
    }
    EXPECT_EQ(p.mean_interval(), 42_sec);
}

// Property sweep: the drawn interval always lies inside the declared band
// and its sample mean matches mean_interval().
struct PolicyCase {
    double tp;
    double tr;
};
class JitterSweep : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(JitterSweep, BandAndMeanHold) {
    const auto [tp, tr] = GetParam();
    UniformJitter p{SimTime::seconds(tp), SimTime::seconds(tr)};
    rng::DefaultEngine gen{99};
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double t = p.next_interval(gen).sec();
        ASSERT_GE(t, tp - tr);
        ASSERT_LE(t, tp + tr);
        sum += t;
    }
    EXPECT_NEAR(sum / n, tp, tr * 0.05 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Bands, JitterSweep,
                         ::testing::Values(PolicyCase{121.0, 0.11},
                                           PolicyCase{121.0, 1.1},
                                           PolicyCase{30.0, 15.0},
                                           PolicyCase{90.0, 0.05},
                                           PolicyCase{15.0, 0.0}));

} // namespace
