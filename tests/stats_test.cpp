// Tests for the statistics subsystem.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "stats/stats.hpp"

namespace {

using namespace routesync::stats;

// ------------------------------------------------------------ RunningStats

TEST(RunningStats, KnownSmallSample) {
    RunningStats s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        s.add(x);
    }
    EXPECT_EQ(s.count(), 8U);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12); // unbiased
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsSafe) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0U);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
    RunningStats s;
    s.add(3.5);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MergeMatchesSequentialFeed) {
    RunningStats a;
    RunningStats b;
    RunningStats all;
    for (int i = 0; i < 100; ++i) {
        const double x = std::sin(0.1 * i) * 10 + i;
        (i < 40 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
    RunningStats a;
    RunningStats empty;
    a.add(1.0);
    a.add(3.0);
    RunningStats c = a;
    c.merge(empty);
    EXPECT_EQ(c.count(), 2U);
    EXPECT_DOUBLE_EQ(c.mean(), 2.0);
    RunningStats d = empty;
    d.merge(a);
    EXPECT_EQ(d.count(), 2U);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
}

// ------------------------------------------------------------- quantiles

TEST(Quantiles, MedianOfOddSample) {
    const std::vector<double> xs{5.0, 1.0, 3.0};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(Quantiles, InterpolatesBetweenRanks) {
    const std::vector<double> xs{0.0, 10.0};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 5.0);
}

TEST(Quantiles, ExtremesAreMinMax) {
    const std::vector<double> xs{4.0, -1.0, 9.0, 2.0};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), -1.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 9.0);
}

TEST(Quantiles, InvalidArgumentsThrow) {
    const std::vector<double> xs{1.0};
    EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
    EXPECT_THROW((void)quantile(xs, -0.1), std::invalid_argument);
    EXPECT_THROW((void)quantile(xs, 1.1), std::invalid_argument);
}

TEST(Quantiles, SummaryOrdering) {
    std::vector<double> xs;
    for (int i = 0; i < 1000; ++i) {
        xs.push_back(static_cast<double>((i * 7919) % 1000));
    }
    const auto s = summarize(xs);
    EXPECT_LE(s.min, s.p25);
    EXPECT_LE(s.p25, s.median);
    EXPECT_LE(s.median, s.p75);
    EXPECT_LE(s.p75, s.p90);
    EXPECT_LE(s.p90, s.p99);
    EXPECT_LE(s.p99, s.max);
}

// ------------------------------------------------------- autocorrelation

TEST(Autocorrelation, LagZeroIsOne) {
    const std::vector<double> xs{1.0, 2.0, 0.5, 3.0};
    const auto r = autocorrelation(xs, 2);
    EXPECT_DOUBLE_EQ(r[0], 1.0);
}

TEST(Autocorrelation, PeriodicSignalPeaksAtItsPeriod) {
    // Period-10 pulse train, like the paper's 90-second loss spikes
    // sampled every 1.01 s (Figure 2's lag-89 peak).
    std::vector<double> xs(400, 0.0);
    for (std::size_t i = 0; i < xs.size(); i += 10) {
        xs[i] = 1.0;
    }
    const auto dom = dominant_lag(xs, 2, 50);
    EXPECT_EQ(dom.lag, 10U);
    EXPECT_GT(dom.correlation, 0.8);
}

TEST(Autocorrelation, SineWavePeaksAtPeriod) {
    std::vector<double> xs;
    const std::size_t period = 25;
    for (int i = 0; i < 500; ++i) {
        xs.push_back(std::sin(2.0 * std::numbers::pi * i / static_cast<double>(period)));
    }
    const auto dom = dominant_lag(xs, 5, 60);
    EXPECT_EQ(dom.lag, period);
    EXPECT_GT(dom.correlation, 0.9);
}

TEST(Autocorrelation, WhiteNoiseHasNoStrongLag) {
    std::vector<double> xs;
    std::uint64_t state = 88172645463325252ULL;
    for (int i = 0; i < 2000; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        xs.push_back(static_cast<double>(state % 1000) / 1000.0);
    }
    const auto dom = dominant_lag(xs, 1, 100);
    EXPECT_LT(dom.correlation, 0.15);
}

TEST(Autocorrelation, ConstantSeriesReportsZero) {
    const std::vector<double> xs(50, 3.0);
    const auto r = autocorrelation(xs, 5);
    EXPECT_DOUBLE_EQ(r[0], 1.0);
    for (std::size_t k = 1; k <= 5; ++k) {
        EXPECT_DOUBLE_EQ(r[k], 0.0);
    }
}

TEST(Autocorrelation, MaxLagZeroIsValidAndReturnsUnity) {
    const std::vector<double> xs{1.0, 2.0, 0.5, 3.0};
    const auto r = autocorrelation(xs, 0);
    ASSERT_EQ(r.size(), 1U);
    EXPECT_DOUBLE_EQ(r[0], 1.0);
}

TEST(Autocorrelation, NearConstantSeriesReportsZeroNotGarbage) {
    // A large mean with sub-epsilon ripple: the centred sum of squares is
    // pure cancellation noise, not signal. The guard must treat it like
    // the exactly-constant case rather than divide by rounding dust.
    std::vector<double> xs(100, 1e9);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        xs[i] += (i % 3 == 0) ? 1e-8 : 0.0;
    }
    const auto r = autocorrelation(xs, 10);
    EXPECT_DOUBLE_EQ(r[0], 1.0);
    for (std::size_t k = 1; k <= 10; ++k) {
        EXPECT_DOUBLE_EQ(r[k], 0.0);
    }
}

TEST(Autocorrelation, InvalidArgumentsThrow) {
    const std::vector<double> xs{1.0, 2.0, 3.0};
    EXPECT_THROW((void)autocorrelation({}, 1), std::invalid_argument);
    EXPECT_THROW((void)autocorrelation(xs, 3), std::invalid_argument);
    EXPECT_THROW((void)dominant_lag(xs, 0, 2), std::invalid_argument);
    EXPECT_THROW((void)dominant_lag(xs, 2, 1), std::invalid_argument);
}

// ----------------------------------------------------------- periodogram

TEST(Periodogram, SineHasPeakAtItsFrequency) {
    std::vector<double> xs;
    const double f0 = 0.04; // 25-sample period
    for (int t = 0; t < 500; ++t) {
        xs.push_back(std::sin(2.0 * std::numbers::pi * f0 * t));
    }
    const auto dom = dominant_frequency(xs, 0.005, 0.5);
    EXPECT_NEAR(dom.frequency, f0, 0.002);
    EXPECT_NEAR(dom.period, 25.0, 1.5);
}

TEST(Periodogram, LossBurstTrainMatchesAutocorrelationVerdict) {
    // The Figure 2 signal shape: periodic loss *bursts* (wide pulses — a
    // bare impulse train would put equal power at every harmonic and the
    // "dominant" frequency would be ill-defined).
    std::vector<double> xs(445, 0.0);
    for (std::size_t i = 0; i + 20 < xs.size(); i += 89) {
        for (std::size_t j = 0; j < 20; ++j) {
            xs[i + j] = 2.0;
        }
    }
    const auto dom = dominant_frequency(xs, 1.0 / 150.0, 0.5);
    EXPECT_NEAR(dom.period, 89.0, 2.0);
    const auto lag = dominant_lag(xs, 30, 150);
    EXPECT_NEAR(static_cast<double>(lag.lag), dom.period, 2.0);
}

TEST(Periodogram, WhiteNoiseHasNoDominantPeak) {
    std::vector<double> xs;
    std::uint64_t state = 99991;
    for (int i = 0; i < 2000; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        xs.push_back(static_cast<double>(state % 1000) / 1000.0);
    }
    const auto power = periodogram(xs);
    double total = 0.0;
    double peak = 0.0;
    for (const double p : power) {
        total += p;
        peak = std::max(peak, p);
    }
    // No single frequency carries more than a few percent of the energy.
    EXPECT_LT(peak / total, 0.03);
}

TEST(Periodogram, ConstantSeriesHasZeroPower) {
    const std::vector<double> xs(64, 5.0);
    for (const double p : periodogram(xs)) {
        EXPECT_NEAR(p, 0.0, 1e-18);
    }
}

TEST(Periodogram, ParsevalEnergyAccounting) {
    // Total periodogram power ~ variance * n / 2 for a zero-mean series
    // (each Fourier bin appears once; its conjugate pair is implicit).
    std::vector<double> xs;
    for (int t = 0; t < 256; ++t) {
        xs.push_back(std::sin(0.7 * t) + 0.5 * std::cos(1.9 * t));
    }
    double mean = 0.0;
    for (const double v : xs) {
        mean += v;
    }
    mean /= static_cast<double>(xs.size());
    double energy = 0.0;
    for (const double v : xs) {
        energy += (v - mean) * (v - mean);
    }
    const auto power = periodogram(xs);
    double total = 0.0;
    for (const double p : power) {
        total += p;
    }
    EXPECT_NEAR(2.0 * total, energy, 0.05 * energy);
}

TEST(Periodogram, InvalidArgumentsThrow) {
    const std::vector<double> xs{1.0, 2.0, 3.0};
    EXPECT_THROW((void)spectral_power({}, 0.1), std::invalid_argument);
    EXPECT_THROW((void)spectral_power(xs, 0.0), std::invalid_argument);
    EXPECT_THROW((void)spectral_power(xs, 0.6), std::invalid_argument);
    EXPECT_THROW((void)periodogram(std::vector<double>{1.0}),
                 std::invalid_argument);
    EXPECT_THROW((void)dominant_frequency(xs, 0.0, 0.5), std::invalid_argument);
    EXPECT_THROW((void)dominant_frequency(xs, 0.4, 0.2), std::invalid_argument);
}

// --------------------------------------------------------- phase_cluster

TEST(PhaseCluster, AllSeparatePointsAreLoneClusters) {
    const std::vector<double> xs{0.0, 10.0, 20.0, 30.0};
    const auto c = cluster_phases(xs, 100.0, 1.0);
    EXPECT_EQ(c.count(), 4U);
    EXPECT_EQ(c.largest(), 1U);
}

TEST(PhaseCluster, AdjacentPointsMerge) {
    const std::vector<double> xs{0.0, 0.5, 1.0, 50.0};
    const auto c = cluster_phases(xs, 100.0, 0.6);
    EXPECT_EQ(c.count(), 2U);
    EXPECT_EQ(c.largest(), 3U);
}

TEST(PhaseCluster, WraparoundMergesEnds) {
    const std::vector<double> xs{99.8, 0.1, 50.0};
    const auto c = cluster_phases(xs, 100.0, 0.5);
    EXPECT_EQ(c.count(), 2U);
    EXPECT_EQ(c.largest(), 2U);
}

TEST(PhaseCluster, FullCircleOfClosePointsIsOneCluster) {
    std::vector<double> xs;
    for (int i = 0; i < 100; ++i) {
        xs.push_back(i * 1.0);
    }
    const auto c = cluster_phases(xs, 100.0, 1.0);
    EXPECT_EQ(c.count(), 1U);
    EXPECT_EQ(c.largest(), 100U);
}

TEST(PhaseCluster, NegativeAndOverflowOffsetsAreNormalized) {
    const std::vector<double> xs{-1.0, 99.0, 199.0};
    const auto c = cluster_phases(xs, 100.0, 0.1);
    EXPECT_EQ(c.count(), 1U);
    EXPECT_EQ(c.largest(), 3U);
}

TEST(PhaseCluster, EmptyInput) {
    const auto c = cluster_phases({}, 100.0, 1.0);
    EXPECT_EQ(c.count(), 0U);
    EXPECT_EQ(c.largest(), 0U);
}

TEST(PhaseCluster, InvalidArgumentsThrow) {
    const std::vector<double> xs{1.0};
    EXPECT_THROW((void)cluster_phases(xs, 0.0, 1.0), std::invalid_argument);
    EXPECT_THROW((void)cluster_phases(xs, 10.0, -1.0), std::invalid_argument);
}

TEST(PhaseCluster, CircularDistance) {
    EXPECT_DOUBLE_EQ(circular_distance(0.0, 99.0, 100.0), 1.0);
    EXPECT_DOUBLE_EQ(circular_distance(10.0, 30.0, 100.0), 20.0);
    EXPECT_DOUBLE_EQ(circular_distance(5.0, 5.0, 100.0), 0.0);
}

} // namespace
