// Tests for the SimTime strong type.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "sim/time.hpp"

namespace {

using routesync::sim::SimTime;
using namespace routesync::sim::literals;

TEST(SimTime, DefaultIsZero) {
    SimTime t;
    EXPECT_EQ(t, SimTime::zero());
    EXPECT_EQ(t.sec(), 0.0);
}

TEST(SimTime, NamedConstructorsAgree) {
    EXPECT_EQ(SimTime::seconds(1.5), SimTime::millis(1500.0));
    EXPECT_EQ(SimTime::millis(2.0), SimTime::micros(2000.0));
    EXPECT_DOUBLE_EQ(SimTime::micros(1.0).sec(), 1e-6);
}

TEST(SimTime, Literals) {
    EXPECT_EQ(2_sec, SimTime::seconds(2.0));
    EXPECT_EQ(2.5_sec, SimTime::seconds(2.5));
    EXPECT_EQ(250_msec, SimTime::millis(250.0));
    EXPECT_EQ(0.5_msec, SimTime::micros(500.0));
}

TEST(SimTime, Arithmetic) {
    const SimTime a = 3_sec;
    const SimTime b = 1.5_sec;
    EXPECT_EQ(a + b, 4.5_sec);
    EXPECT_EQ(a - b, 1.5_sec);
    EXPECT_EQ(a * 2.0, 6_sec);
    EXPECT_EQ(2.0 * a, 6_sec);
    EXPECT_EQ(a / 2.0, 1.5_sec);
    EXPECT_DOUBLE_EQ(a / b, 2.0);
    EXPECT_EQ(-a, SimTime::seconds(-3.0));
}

TEST(SimTime, CompoundAssignment) {
    SimTime t = 1_sec;
    t += 2_sec;
    EXPECT_EQ(t, 3_sec);
    t -= 500_msec;
    EXPECT_EQ(t, 2.5_sec);
    t *= 4.0;
    EXPECT_EQ(t, 10_sec);
}

TEST(SimTime, Ordering) {
    EXPECT_LT(1_sec, 2_sec);
    EXPECT_LE(2_sec, 2_sec);
    EXPECT_GT(3_sec, 2_sec);
    EXPECT_NE(1_sec, 2_sec);
}

TEST(SimTime, ModulusBasic) {
    EXPECT_NEAR((10_sec).mod(3_sec).sec(), 1.0, 1e-12);
    EXPECT_NEAR((3_sec).mod(3_sec).sec(), 0.0, 1e-12);
    EXPECT_NEAR((2_sec).mod(3_sec).sec(), 2.0, 1e-12);
}

TEST(SimTime, ModulusOfNegativeIsNonNegative) {
    const SimTime t = SimTime::seconds(-1.0);
    const double r = t.mod(3_sec).sec();
    EXPECT_GE(r, 0.0);
    EXPECT_NEAR(r, 2.0, 1e-12);
}

// The reduction SimTime::mod must reproduce bit for bit on every input.
double fmod_wrap(double t, double period) {
    double r = std::fmod(t, period);
    if (r < 0) {
        r += period;
    }
    return r;
}

void expect_mod_bits(double t, double period) {
    const double got = SimTime::seconds(t).mod(SimTime::seconds(period)).sec();
    const double want = fmod_wrap(t, period);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << "t = " << t << " (" << std::hexfloat << t << "), L = " << period
        << std::defaultfloat << ": got " << got << ", want " << want;
}

TEST(SimTime, ModulusMatchesFmodBitForBit) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double periods[] = {121.11, 154.41, 0.3, 1e-3, 0x1p-20, 7.0};
    std::mt19937_64 gen{1993};
    for (const double period : periods) {
        std::vector<double> ts = {0.0,    -0.0,  -1.0,     -period, -1e-300,
                                  -1e6,   inf,   -inf,     nan,     1e-300,
                                  std::numeric_limits<double>::denorm_min(),
                                  period, 0x1p53, 0x1p53 - 1.0, 1e300};
        // Exact multiples k*L (as rounded) and their neighbours: where
        // t/L rounds across an integer and the quotient guess is off by one.
        for (double k = 1.0; k < 0x1p53; k = k * 3.0 + 1.0) {
            double t = k * period;
            for (int step = 0; step < 3; ++step) {
                t = std::nextafter(t, -inf);
            }
            for (int step = 0; step < 7; ++step) {
                ts.push_back(t);
                ts.push_back(-t);
                t = std::nextafter(t, inf);
            }
        }
        // Quotients straddling 2^52, where the fast path hands over to fmod.
        for (const double q : {0x1p52 - 2.0, 0x1p52 - 1.0, 0x1p52, 0x1p52 + 2.0}) {
            const double t = q * period;
            ts.push_back(std::nextafter(t, -inf));
            ts.push_back(t);
            ts.push_back(std::nextafter(t, inf));
        }
        // Random magnitudes from far below L up to 2^53.
        for (int i = 0; i < 20000; ++i) {
            const double mantissa =
                1.0 + std::ldexp(static_cast<double>(gen() >> 12), -52);
            const int exponent = static_cast<int>(gen() % 84) - 30;
            ts.push_back(std::ldexp(mantissa, exponent));
        }
        for (const double t : ts) {
            expect_mod_bits(t, period);
        }
    }
    // Degenerate moduli take fmod's answers too.
    for (const double period : {0.0, -0.0, -7.0, inf, nan,
                                std::numeric_limits<double>::denorm_min()}) {
        for (const double t : {0.0, -0.0, 5.5, -5.5, 1e300, inf, nan}) {
            expect_mod_bits(t, period);
        }
    }
}

TEST(SimTime, Infinity) {
    EXPECT_FALSE(SimTime::infinity().is_finite());
    EXPECT_TRUE((1_sec).is_finite());
    EXPECT_LT(1e300_sec, SimTime::infinity());
}

TEST(SimTime, MillisecondAccessor) {
    EXPECT_DOUBLE_EQ((1.5_sec).ms(), 1500.0);
}

} // namespace
