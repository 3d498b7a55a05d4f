// Tests for the global work-stealing sweep scheduler
// (parallel/sweep_scheduler.hpp): submission-order determinism across
// worker counts, stealing under skew, exception propagation, mixed
// submit/submit_generated batches, and reuse after run().
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/core.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel.hpp"

namespace {

using namespace routesync;

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

void expect_identical(const std::vector<core::ExperimentResult>& a,
                      const std::vector<core::ExperimentResult>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].total_transmissions, b[i].total_transmissions) << i;
        EXPECT_EQ(a[i].events_processed, b[i].events_processed) << i;
        EXPECT_EQ(a[i].rounds_closed, b[i].rounds_closed) << i;
        EXPECT_EQ(a[i].end_time_sec, b[i].end_time_sec) << i;
    }
}

TEST(SweepScheduler, ResultsIdenticalAcrossWorkerCounts) {
    std::vector<core::ExperimentConfig> configs;
    for (std::uint64_t s = 1; s <= 12; ++s) {
        configs.push_back(small_config(s, 4 + static_cast<int>(s % 5)));
    }
    const auto r1 = parallel::SweepScheduler{{.jobs = 1}}.run_all(configs);
    const auto r4 = parallel::SweepScheduler{{.jobs = 4}}.run_all(configs);
    const auto r8 = parallel::SweepScheduler{{.jobs = 8}}.run_all(configs);
    expect_identical(r1, r4);
    expect_identical(r1, r8);
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
    const auto scalar =
        parallel::SweepScheduler{{.jobs = 1, .batch = 1}}.run_all(configs);
    const std::size_t jobs_grid[] = {1, 4, 8};
    const std::size_t batch_grid[] = {0, 1, 3, 16};
    for (const std::size_t jobs : jobs_grid) {
        for (const std::size_t batch : batch_grid) {
            const auto got =
                parallel::SweepScheduler{{.jobs = jobs, .batch = batch}}
                    .run_all(configs);
            expect_identical(scalar, got);
            for (std::size_t i = 0; i < scalar.size(); ++i) {
                EXPECT_EQ(scalar[i].metrics, got[i].metrics)
                    << "jobs=" << jobs << " batch=" << batch << " task=" << i;
            }
        }
    }
}

TEST(SweepScheduler, EffectiveBatchAutoTunes) {
    // Explicit batch always wins; auto picks 16 single-threaded and
    // throttles down so each worker sees at least two chunks.
    EXPECT_EQ((parallel::SweepScheduler{{.jobs = 4, .batch = 5}})
                  .effective_batch(100),
              5U);
    EXPECT_EQ((parallel::SweepScheduler{{.jobs = 1}}).effective_batch(100),
              16U);
    EXPECT_EQ((parallel::SweepScheduler{{.jobs = 4}}).effective_batch(400),
              16U);
    EXPECT_EQ((parallel::SweepScheduler{{.jobs = 4}}).effective_batch(40),
              5U);
    EXPECT_EQ((parallel::SweepScheduler{{.jobs = 8}}).effective_batch(8), 1U);
}

TEST(SweepScheduler, JobsZeroAutoDetects) {
    parallel::SweepScheduler scheduler{{.jobs = 0}};
    EXPECT_EQ(scheduler.jobs(), parallel::hardware_jobs());
}

TEST(SweepScheduler, ResultsLandInSubmissionOrder) {
    // Each task gets a distinct max_time; with no stop conditions the
    // result's end_time_sec equals it, so any slot mix-up is visible.
    parallel::SweepScheduler scheduler{{.jobs = 4}};
    for (int i = 0; i < 10; ++i) {
        scheduler.submit(small_config(7, 6, 100.0 + i));
    }
    EXPECT_EQ(scheduler.pending(), 10U);
    const auto results = scheduler.run();
    ASSERT_EQ(results.size(), 10U);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(results[static_cast<std::size_t>(i)].end_time_sec, 100.0 + i);
    }
}

TEST(SweepScheduler, MixedSubmitAndGeneratedBatches) {
    parallel::SweepScheduler scheduler{{.jobs = 3}};
    EXPECT_EQ(scheduler.submit(small_config(1, 6, 111.0)), 0U);
    EXPECT_EQ(scheduler.submit_generated(
                  4, [](std::size_t i) {
                      return small_config(2, 6, 200.0 + static_cast<double>(i));
                  }),
              1U);
    EXPECT_EQ(scheduler.submit(small_config(3, 6, 333.0)), 5U);
    const auto results = scheduler.run();
    ASSERT_EQ(results.size(), 6U);
    EXPECT_EQ(results[0].end_time_sec, 111.0);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(results[1 + i].end_time_sec, 200.0 + static_cast<double>(i));
    }
    EXPECT_EQ(results[5].end_time_sec, 333.0);
}

TEST(SweepScheduler, ReusableAfterRun) {
    parallel::SweepScheduler scheduler{{.jobs = 2}};
    scheduler.submit(small_config(1));
    const auto first = scheduler.run();
    ASSERT_EQ(first.size(), 1U);
    EXPECT_EQ(scheduler.pending(), 0U);
    scheduler.submit(small_config(2, 6, 250.0));
    scheduler.submit(small_config(3, 6, 260.0));
    const auto second = scheduler.run();
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
        parallel::SweepScheduler scheduler{{.jobs = 4}};
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
    parallel::SweepScheduler scheduler{{.jobs = 2}};
    EXPECT_THROW(scheduler.run_all(configs), std::invalid_argument);
    // The scheduler survives the throw and accepts fresh work.
    scheduler.submit(small_config(5));
    const auto results = scheduler.run();
    ASSERT_EQ(results.size(), 1U);
    EXPECT_GT(results[0].total_transmissions, 0U);
}

TEST(SweepScheduler, MergeSweepIntoAccumulatesMetrics) {
    std::vector<core::ExperimentConfig> configs;
    for (std::uint64_t s = 1; s <= 3; ++s) {
        configs.push_back(small_config(s));
    }
    const auto results = parallel::SweepScheduler{{.jobs = 2}}.run_all(configs);
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

} // namespace
