// Tests for the random-number subsystem.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "rng/rng.hpp"

namespace {

using namespace routesync::rng;

// ------------------------------------------------------------- SplitMix64

TEST(SplitMix64, KnownFirstOutputsFromSeedZero) {
    // Reference values from the canonical splitmix64.c (Vigna).
    SplitMix64 gen{0};
    EXPECT_EQ(gen(), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(gen(), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(gen(), 0x06c45d188009454fULL);
}

TEST(SplitMix64, DistinctSeedsGiveDistinctStreams) {
    SplitMix64 a{1};
    SplitMix64 b{2};
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b()) {
            ++equal;
        }
    }
    EXPECT_EQ(equal, 0);
}

// ----------------------------------------------------------- Xoshiro256**

TEST(Xoshiro256ss, DeterministicForSeed) {
    Xoshiro256ss a{99};
    Xoshiro256ss b{99};
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Xoshiro256ss, BitsLookBalanced) {
    Xoshiro256ss gen{2024};
    std::array<int, 64> ones{};
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        std::uint64_t v = gen();
        for (int b = 0; b < 64; ++b) {
            ones[static_cast<std::size_t>(b)] += static_cast<int>((v >> b) & 1U);
        }
    }
    for (int b = 0; b < 64; ++b) {
        const double frac = static_cast<double>(ones[static_cast<std::size_t>(b)]) / n;
        EXPECT_NEAR(frac, 0.5, 0.01) << "bit " << b;
    }
}

// ---------------------------------------------------------- distributions

TEST(Distributions, Uniform01InHalfOpenUnitInterval) {
    Xoshiro256ss gen{1};
    for (int i = 0; i < 100000; ++i) {
        const double u = uniform01(gen);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Distributions, Uniform01MeanAndVariance) {
    Xoshiro256ss gen{17};
    double sum = 0.0;
    double sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double u = uniform01(gen);
        sum += u;
        sq += u * u;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.5, 0.005);
    EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Distributions, UniformRealRespectsBounds) {
    Xoshiro256ss gen{3};
    for (int i = 0; i < 10000; ++i) {
        const double x = uniform_real(gen, -2.5, 7.25);
        EXPECT_GE(x, -2.5);
        EXPECT_LT(x, 7.25);
    }
}

TEST(Distributions, UniformRealDegenerateRangeReturnsLo) {
    Xoshiro256ss gen{3};
    EXPECT_EQ(uniform_real(gen, 4.0, 4.0), 4.0);
}

TEST(Distributions, UniformU64CoversSmallRangeCompletely) {
    Xoshiro256ss gen{11};
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = uniform_u64(gen, 10, 17);
        EXPECT_GE(v, 10U);
        EXPECT_LE(v, 17U);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 8U);
}

TEST(Distributions, UniformU64SingletonRange) {
    Xoshiro256ss gen{11};
    EXPECT_EQ(uniform_u64(gen, 42, 42), 42U);
}

TEST(Distributions, UniformI64HandlesNegativeBounds) {
    Xoshiro256ss gen{13};
    for (int i = 0; i < 10000; ++i) {
        const auto v = uniform_i64(gen, -5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Distributions, ExponentialMeanConverges) {
    Xoshiro256ss gen{23};
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = exponential(gen, 3.0);
        EXPECT_GE(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Distributions, BernoulliFrequencyMatchesP) {
    Xoshiro256ss gen{29};
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        hits += bernoulli(gen, 0.3) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// Parameterized sweep: every seed gives a reproducible stream.
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, XoshiroReproducible) {
    Xoshiro256ss a{GetParam()};
    Xoshiro256ss b{GetParam()};
    for (int i = 0; i < 256; ++i) {
        ASSERT_EQ(a(), b());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(0ULL, 1ULL, 2ULL, 42ULL, 12345ULL,
                                           0xffffffffULL, 0x123456789abcdefULL,
                                           ~0ULL));

} // namespace
