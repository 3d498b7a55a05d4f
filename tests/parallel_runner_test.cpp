// Tests for routesync::parallel — the fork-join primitives, seed
// derivation, and the SweepScheduler's full-result determinism. The
// headline property: running the same sweep with jobs=1 and jobs=4
// yields identical ExperimentResult fields for every trial.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/core.hpp"
#include "markov/markov.hpp"
#include "parallel/parallel.hpp"

using namespace routesync;
using parallel::SweepScheduler;
using parallel::SweepSchedulerOptions;

namespace {

/// A small but heterogeneous sweep: both start conditions, several seeds,
/// a couple of Tr settings — enough to exercise different stop paths.
std::vector<core::ExperimentConfig> sweep_configs() {
    std::vector<core::ExperimentConfig> configs;
    for (const double factor : {0.8, 1.2}) {
        for (int seed = 1; seed <= 2; ++seed) {
            core::ExperimentConfig cfg;
            cfg.params.n = 10;
            cfg.params.tp = sim::SimTime::seconds(121);
            cfg.params.tc = sim::SimTime::seconds(0.11);
            cfg.params.tr = sim::SimTime::seconds(factor * 0.11);
            cfg.params.seed = parallel::derive_seed(7, static_cast<std::uint64_t>(seed));
            cfg.max_time = sim::SimTime::seconds(5e4);
            cfg.record_cluster_events = true;
            cfg.record_rounds = true;
            configs.push_back(cfg);
        }
    }
    for (int seed = 1; seed <= 2; ++seed) {
        core::ExperimentConfig cfg;
        cfg.params.n = 10;
        cfg.params.tp = sim::SimTime::seconds(121);
        cfg.params.tc = sim::SimTime::seconds(0.11);
        cfg.params.tr = sim::SimTime::seconds(0.3);
        cfg.params.start = core::StartCondition::Synchronized;
        cfg.params.seed = parallel::derive_seed(11, static_cast<std::uint64_t>(seed));
        cfg.max_time = sim::SimTime::seconds(5e4);
        cfg.stop_on_breakup_threshold = 1;
        cfg.record_cluster_events = true;
        configs.push_back(cfg);
    }
    return configs;
}

void expect_identical(const core::ExperimentResult& a, const core::ExperimentResult& b) {
    EXPECT_EQ(a.full_sync_time_sec, b.full_sync_time_sec);
    EXPECT_EQ(a.breakup_time_sec, b.breakup_time_sec);
    EXPECT_EQ(a.total_transmissions, b.total_transmissions);
    EXPECT_EQ(a.events_processed, b.events_processed);
    EXPECT_EQ(a.rounds_closed, b.rounds_closed);
    EXPECT_EQ(a.rounds_unsynchronized, b.rounds_unsynchronized);
    EXPECT_EQ(a.end_time_sec, b.end_time_sec);
    ASSERT_EQ(a.cluster_events.size(), b.cluster_events.size());
    for (std::size_t i = 0; i < a.cluster_events.size(); ++i) {
        EXPECT_EQ(a.cluster_events[i].time.sec(), b.cluster_events[i].time.sec());
        EXPECT_EQ(a.cluster_events[i].size, b.cluster_events[i].size);
    }
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    for (std::size_t i = 0; i < a.rounds.size(); ++i) {
        EXPECT_EQ(a.rounds[i].end_time.sec(), b.rounds[i].end_time.sec());
        EXPECT_EQ(a.rounds[i].largest, b.rounds[i].largest);
    }
    ASSERT_EQ(a.first_hit_up.size(), b.first_hit_up.size());
    for (std::size_t i = 0; i < a.first_hit_up.size(); ++i) {
        EXPECT_EQ(a.first_hit_up[i], b.first_hit_up[i]);
    }
}

TEST(SweepScheduler, Jobs4MatchesJobs1Exactly) {
    const auto configs = sweep_configs();
    const auto serial = SweepScheduler{{.jobs = 1}}.run_all(configs);
    const auto parallel4 = SweepScheduler{{.jobs = 4}}.run_all(configs);
    ASSERT_EQ(serial.size(), configs.size());
    ASSERT_EQ(parallel4.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("trial " + std::to_string(i));
        expect_identical(serial[i], parallel4[i]);
    }
}

TEST(SweepScheduler, RunAllMatchesDirectRunExperiment) {
    const auto configs = sweep_configs();
    const auto results = SweepScheduler{{.jobs = 3}}.run_all(configs);
    // Submission order: result i is exactly run_experiment(configs[i]).
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("trial " + std::to_string(i));
        expect_identical(results[i], core::run_experiment(configs[i]));
    }
}

TEST(SweepScheduler, GeneratorFormMatchesMaterializedConfigs) {
    const auto configs = sweep_configs();
    const auto from_vector = SweepScheduler{{.jobs = 1}}.run_all(configs);
    const auto generated = SweepScheduler{{.jobs = 4}}.run_generated(
        configs.size(), [&](std::size_t i) { return configs[i]; });
    ASSERT_EQ(generated.size(), from_vector.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("trial " + std::to_string(i));
        expect_identical(from_vector[i], generated[i]);
    }
}

TEST(SweepScheduler, JobsZeroMeansHardwareConcurrency) {
    EXPECT_EQ(SweepScheduler{}.jobs(), parallel::hardware_jobs());
    EXPECT_EQ((SweepScheduler{SweepSchedulerOptions{.jobs = 0}}.jobs()),
              parallel::hardware_jobs());
    EXPECT_EQ((SweepScheduler{SweepSchedulerOptions{.jobs = 3}}.jobs()), 3u);
    EXPECT_GE(parallel::hardware_jobs(), 1u);
}

TEST(SweepScheduler, EmptyConfigListYieldsEmptyResults) {
    EXPECT_TRUE(SweepScheduler{{.jobs = 4}}.run_all({}).empty());
}

TEST(DeriveSeed, IsPureAndWellSpread) {
    // Pure function of (base, index)...
    EXPECT_EQ(parallel::derive_seed(1, 0), parallel::derive_seed(1, 0));
    // ...distinct across indices and bases (collisions in a 64-bit mix
    // over a few hundred probes would indicate a broken derivation).
    std::set<std::uint64_t> seen;
    for (std::uint64_t base : {0ULL, 1ULL, 0xdeadbeefULL}) {
        for (std::uint64_t i = 0; i < 100; ++i) {
            seen.insert(parallel::derive_seed(base, i));
        }
    }
    EXPECT_EQ(seen.size(), 300u);
    // Never the degenerate all-zeros seed for the common bases.
    EXPECT_NE(parallel::derive_seed(0, 0), 0u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    std::vector<std::atomic<int>> hits(257);
    parallel::for_index(hits.size(), 4, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelFor, MapIndexPreservesIndexOrder) {
    const auto out = parallel::map_index<std::size_t>(
        1000, 8, [](std::size_t i) { return i * 2; });
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], i * 2);
    }
}

TEST(ParallelFor, PropagatesTaskExceptions) {
    EXPECT_THROW(parallel::for_index(100, 4,
                                     [](std::size_t i) {
                                         if (i == 57) {
                                             throw std::runtime_error{"boom"};
                                         }
                                     }),
                 std::runtime_error);
}

TEST(ParallelFor, ZeroCountAndInlinePathsWork) {
    bool ran = false;
    parallel::for_index(0, 4, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
    std::vector<std::size_t> order;
    parallel::for_index(5, 1, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(F2Estimator, ParallelJobsMatchSerial) {
    markov::ChainParams p;
    p.n = 10;
    p.tp_sec = 121.0;
    p.tr_sec = 0.1;
    p.tc_sec = 0.11;
    const auto serial = markov::estimate_f2(p, 4, 1, 500.0, 1);
    const auto threaded = markov::estimate_f2(p, 4, 1, 500.0, 4);
    EXPECT_EQ(serial.mean_rounds, threaded.mean_rounds);
    EXPECT_EQ(serial.mean_seconds, threaded.mean_seconds);
    EXPECT_EQ(serial.completed, threaded.completed);
    EXPECT_EQ(serial.censored, threaded.censored);
}

} // namespace
