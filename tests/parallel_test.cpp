// Tests for routesync::parallel: the work-stealing TaskPool, map_index
// over it, seed derivation, and the SweepScheduler's full-result
// determinism. The headline property: running the same sweep at any
// worker count and claim size yields identical ExperimentResult fields
// for every trial, each in the slot of its index.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "markov/markov.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel.hpp"

namespace {

using namespace routesync;
using parallel::SweepScheduler;
using parallel::SweepSchedulerOptions;

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

/// A short unsynchronized-start trial; with no stop condition its
/// end_time_sec equals `max_time`, so a result in the wrong slot shows.
core::ExperimentConfig small_config(std::uint64_t seed, int n = 8,
                                    double max_time = 500.0) {
    core::ExperimentConfig cfg;
    cfg.params.n = n;
    cfg.params.tp = sim::SimTime::seconds(30);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.tr = sim::SimTime::seconds(0.11);
    cfg.params.seed = seed;
    cfg.max_time = sim::SimTime::seconds(max_time);
    return cfg;
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

// ---- TaskPool ------------------------------------------------------------

TEST(TaskPool, CoversEveryIndexExactlyOnce) {
    parallel::TaskPool pool{8};
    constexpr std::size_t kCount = 1000;
    std::vector<int> hits(kCount, 0);
    std::mutex m;
    (void)pool.run(kCount, 7, [&](std::size_t lo, std::size_t len) {
        const std::lock_guard<std::mutex> lock{m};
        for (std::size_t i = lo; i < lo + len; ++i) {
            hits[i] += 1;
        }
    });
    for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(hits[i], 1) << "index " << i;
    }
}

TEST(TaskPool, InlinePathRunsInOrderAndPropagates) {
    parallel::TaskPool pool{1};
    std::vector<std::size_t> order;
    const std::size_t steals =
        pool.run(10, 3, [&](std::size_t lo, std::size_t len) {
            for (std::size_t i = lo; i < lo + len; ++i) {
                order.push_back(i);
            }
        });
    EXPECT_EQ(steals, 0U);
    ASSERT_EQ(order.size(), 10U);
    for (std::size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(order[i], i);
    }
    EXPECT_THROW(
        (void)pool.run(3, 1,
                       [](std::size_t, std::size_t) {
                           throw std::runtime_error{"boom"};
                       }),
        std::runtime_error);
}

TEST(TaskPool, WorkerExceptionIsRethrownAfterDrain) {
    parallel::TaskPool pool{4};
    std::atomic<int> ran{0};
    EXPECT_THROW(
        (void)pool.run(64, 1,
                       [&](std::size_t lo, std::size_t) {
                           ran.fetch_add(1);
                           if (lo == 13) {
                               throw std::runtime_error{"boom"};
                           }
                       }),
        std::runtime_error);
    // Independent tasks keep running; only the failing chunk is lost.
    EXPECT_EQ(ran.load(), 64);
}

// ---- map_index -----------------------------------------------------------

TEST(ParallelFor, MapIndexPreservesIndexOrder) {
    const auto out = parallel::map_index<std::size_t>(
        1000, 8, [](std::size_t i) { return i * 2; });
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], i * 2);
    }
}

TEST(ParallelFor, PropagatesTaskExceptions) {
    EXPECT_THROW((void)parallel::map_index<int>(100, 4,
                                                [](std::size_t i) {
                                                    if (i == 57) {
                                                        throw std::runtime_error{
                                                            "boom"};
                                                    }
                                                    return 0;
                                                }),
                 std::runtime_error);
}

TEST(ParallelFor, ZeroCountAndInlinePathsWork) {
    bool ran = false;
    EXPECT_TRUE((parallel::map_index<int>(0, 4, [&](std::size_t) {
                    ran = true;
                    return 0;
                })).empty());
    EXPECT_FALSE(ran);
    // One worker runs every index inline, on the calling thread, in
    // index order.
    std::vector<std::size_t> order;
    const auto out = parallel::map_index<std::size_t>(5, 1, [&](std::size_t i) {
        order.push_back(i);
        return i;
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(out, order);
}

// ---- SweepScheduler --------------------------------------------------------

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

TEST(SweepScheduler, ResultsIdenticalAcrossJobsAndBatchSizes) {
    // The claim size never shows in the results: every (jobs, batch)
    // combination must reproduce the jobs=1 batch=1 pass exactly,
    // including per-trial metrics snapshots. 22 tasks with batch 3 and 16
    // exercises truncated tails in the chunk claims.
    std::vector<core::ExperimentConfig> configs;
    for (std::uint64_t s = 1; s <= 22; ++s) {
        auto cfg = small_config(s, 4 + static_cast<int>(s % 5));
        if (s % 4 == 0) {
            cfg.stop_on_full_sync = true; // a stop inside a multi-task claim
        }
        configs.push_back(cfg);
    }
    const auto scalar = SweepScheduler{{.jobs = 1, .batch = 1}}.run_all(configs);
    const std::size_t jobs_grid[] = {1, 4, 8};
    const std::size_t batch_grid[] = {0, 1, 3, 16};
    for (const std::size_t jobs : jobs_grid) {
        for (const std::size_t batch : batch_grid) {
            const auto got =
                SweepScheduler{{.jobs = jobs, .batch = batch}}.run_all(configs);
            ASSERT_EQ(got.size(), scalar.size());
            for (std::size_t i = 0; i < scalar.size(); ++i) {
                SCOPED_TRACE("jobs=" + std::to_string(jobs) + " batch=" +
                             std::to_string(batch) + " task=" + std::to_string(i));
                expect_identical(scalar[i], got[i]);
                EXPECT_EQ(scalar[i].metrics, got[i].metrics);
            }
        }
    }
}

TEST(SweepScheduler, EffectiveBatchAutoTunes) {
    // Explicit batch always wins; auto picks 16 single-threaded and
    // throttles down so each worker sees at least two chunks.
    EXPECT_EQ((SweepScheduler{{.jobs = 4, .batch = 5}}).effective_batch(100), 5U);
    EXPECT_EQ((SweepScheduler{{.jobs = 1}}).effective_batch(100), 16U);
    EXPECT_EQ((SweepScheduler{{.jobs = 4}}).effective_batch(400), 16U);
    EXPECT_EQ((SweepScheduler{{.jobs = 4}}).effective_batch(40), 5U);
    EXPECT_EQ((SweepScheduler{{.jobs = 8}}).effective_batch(8), 1U);
}

TEST(SweepScheduler, JobsZeroAutoDetects) {
    // jobs = 0 means the hardware concurrency for the pool and the
    // scheduler alike; the scheduler's default is that auto setting.
    EXPECT_GE(parallel::hardware_jobs(), 1U);
    EXPECT_EQ(parallel::TaskPool{0}.jobs(), parallel::hardware_jobs());
    EXPECT_EQ(SweepScheduler{}.jobs(), parallel::hardware_jobs());
    EXPECT_EQ((SweepScheduler{SweepSchedulerOptions{.jobs = 0}}.jobs()),
              parallel::hardware_jobs());
    EXPECT_EQ((SweepScheduler{SweepSchedulerOptions{.jobs = 3}}.jobs()), 3U);
}

TEST(SweepScheduler, EmptyConfigListYieldsEmptyResults) {
    EXPECT_TRUE(SweepScheduler{{.jobs = 4}}.run_all({}).empty());
}

TEST(SweepScheduler, ResultsLandInSubmissionOrder) {
    // Each task gets a distinct max_time, so any slot mix-up is visible.
    std::vector<core::ExperimentConfig> configs;
    for (int i = 0; i < 10; ++i) {
        configs.push_back(small_config(7, 6, 100.0 + i));
    }
    SweepScheduler scheduler{{.jobs = 4}};
    const auto results = scheduler.run_all(configs);
    ASSERT_EQ(results.size(), 10U);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(results[static_cast<std::size_t>(i)].end_time_sec, 100.0 + i);
    }
}

TEST(SweepScheduler, ReusableAfterRun) {
    // A second run starts from fresh result slots: nothing of the first
    // run's results, count or steals carries over.
    SweepScheduler scheduler{{.jobs = 2}};
    const auto first = scheduler.run_all({small_config(1)});
    ASSERT_EQ(first.size(), 1U);
    EXPECT_EQ(scheduler.steals(), 0U);
    const auto second = scheduler.run_generated(2, [](std::size_t i) {
        return small_config(2 + i, 6, 250.0 + 10.0 * static_cast<double>(i));
    });
    ASSERT_EQ(second.size(), 2U);
    EXPECT_EQ(second[0].end_time_sec, 250.0);
    EXPECT_EQ(second[1].end_time_sec, 260.0);
}

TEST(SweepScheduler, StealsFromSkewedRanges) {
    // Worker 0's contiguous range holds all the heavy tasks; the other
    // workers drain their tiny ones and must steal. Stealing is
    // timing-dependent (a worker could in principle finish its whole
    // range before the others spin up), so retry a few times — but with
    // this much skew one round almost always shows a steal.
    std::vector<core::ExperimentConfig> configs;
    for (int i = 0; i < 16; ++i) {
        const bool heavy = i < 4; // first range, 16/4 = 4 tasks per worker
        configs.push_back(
            small_config(static_cast<std::uint64_t>(i + 1), heavy ? 24 : 2,
                         heavy ? 20000.0 : 10.0));
    }
    std::uint64_t steals = 0;
    for (int attempt = 0; attempt < 5 && steals == 0; ++attempt) {
        SweepScheduler scheduler{{.jobs = 4}};
        const auto results = scheduler.run_all(configs);
        ASSERT_EQ(results.size(), configs.size());
        steals = scheduler.steals();
    }
    EXPECT_GT(steals, 0U);
}

TEST(SweepScheduler, FirstExceptionPropagates) {
    std::vector<core::ExperimentConfig> configs;
    configs.push_back(small_config(1));
    configs.push_back(small_config(2));
    configs[1].params.n = 0; // invalid: the model ctor throws
    SweepScheduler scheduler{{.jobs = 2}};
    EXPECT_THROW((void)scheduler.run_all(configs), std::invalid_argument);
    // The scheduler survives the throw and runs fresh work, none of the
    // failed run's tasks among it.
    const auto results = scheduler.run_all({small_config(5, 6, 300.0)});
    ASSERT_EQ(results.size(), 1U);
    EXPECT_GT(results[0].total_transmissions, 0U);
    EXPECT_EQ(results[0].end_time_sec, 300.0);
}

TEST(SweepScheduler, MergeSweepIntoAccumulatesMetrics) {
    std::vector<core::ExperimentConfig> configs;
    for (std::uint64_t s = 1; s <= 3; ++s) {
        configs.push_back(small_config(s));
    }
    const auto results = SweepScheduler{{.jobs = 2}}.run_all(configs);
    obs::RunContext ctx;
    parallel::merge_sweep_into(ctx, results);
    ctx.finish(0.0); // folds the merged per-trial snapshots into the manifest
    std::uint64_t want = 0;
    for (const auto& r : results) {
        want += r.total_transmissions;
    }
    EXPECT_EQ(ctx.manifest().metrics.counters.at("experiment.transmissions"),
              want);
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
