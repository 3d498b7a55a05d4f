// Tests for the packet-level scenario sweep (scenarios/scenario_sweep):
// grid decoding, the --buffers/--loads spec parsers, and — the load-
// bearing property — byte-identical results across worker counts. Each
// cell runs a full shared-LAN simulation with its own engine and tracer,
// so the per-cell trace digests double as the cross-thread contamination
// witness.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "scenarios/scenario_sweep.hpp"

namespace {

using namespace routesync;
using namespace routesync::scenarios;

SharedLanScenarioConfig small_base() {
    SharedLanScenarioConfig base;
    base.n = 6;
    base.max_time = sim::SimTime::seconds(120);
    base.seed = 11;
    return base;
}

// ---- spec parsers -------------------------------------------------------

TEST(ScenarioSweepSpec, BufferLadderDoublesAndIncludesTop) {
    EXPECT_EQ(parse_buffer_list("2..64"),
              (std::vector<std::size_t>{2, 4, 8, 16, 32, 64}));
    EXPECT_EQ(parse_buffer_list("2..48"),
              (std::vector<std::size_t>{2, 4, 8, 16, 32, 48}));
    EXPECT_EQ(parse_buffer_list("8..8"), (std::vector<std::size_t>{8}));
    EXPECT_EQ(parse_buffer_list("8,16,24"),
              (std::vector<std::size_t>{8, 16, 24}));
    EXPECT_EQ(parse_buffer_list("5"), (std::vector<std::size_t>{5}));
}

TEST(ScenarioSweepSpec, BufferJunkRejected) {
    EXPECT_THROW((void)parse_buffer_list(""), std::invalid_argument);
    EXPECT_THROW((void)parse_buffer_list("0..8"), std::invalid_argument);
    EXPECT_THROW((void)parse_buffer_list("16..2"), std::invalid_argument);
    EXPECT_THROW((void)parse_buffer_list("4,x"), std::invalid_argument);
    EXPECT_THROW((void)parse_buffer_list("4,"), std::invalid_argument);
    EXPECT_THROW((void)parse_buffer_list("-4"), std::invalid_argument);
    EXPECT_THROW((void)parse_buffer_list("4.5"), std::invalid_argument);
    // Sizes follow --queue-cap's rule, [1, INT_MAX]; strtol used to read
    // past long's range as LONG_MAX.
    EXPECT_EQ(parse_buffer_list("2147483647"),
              (std::vector<std::size_t>{2147483647}));
    EXPECT_THROW((void)parse_buffer_list("2147483648"), std::invalid_argument);
    EXPECT_THROW((void)parse_buffer_list("99999999999999999999"),
                 std::invalid_argument);
    EXPECT_THROW((void)parse_buffer_list("4..99999999999999999999"),
                 std::invalid_argument);
}

TEST(ScenarioSweepSpec, LoadListParsesAndRejectsJunk) {
    EXPECT_EQ(parse_load_list("0.5,1,1.5"),
              (std::vector<double>{0.5, 1.0, 1.5}));
    EXPECT_EQ(parse_load_list("1"), (std::vector<double>{1.0}));
    EXPECT_THROW((void)parse_load_list(""), std::invalid_argument);
    EXPECT_THROW((void)parse_load_list("1,-0.5"), std::invalid_argument);
    EXPECT_THROW((void)parse_load_list("1,junk"), std::invalid_argument);
    // Non-finite loads used to run with no background traffic at all.
    for (const char* load : {"nan", "inf", "1e400"}) {
        EXPECT_THROW((void)parse_load_list(load), std::invalid_argument) << load;
    }
}

// ---- grid shape ---------------------------------------------------------

TEST(ScenarioSweep, GridIsBufferMajorWithPerTrialSeeds) {
    ScenarioSweepConfig sc;
    sc.base = small_base();
    sc.base.max_time = sim::SimTime::seconds(5); // shape test, tiny runs
    sc.buffers = {4, 8};
    sc.loads = {0.5, 1.0};
    sc.trials = 2;
    sc.jobs = 1;
    const ScenarioSweepResult sweep = run_scenario_sweep(sc);
    ASSERT_EQ(sweep.cells.size(), 8U);
    // buffer-major, then load, then trial.
    EXPECT_EQ(sweep.cells[0].buffer, 4U);
    EXPECT_EQ(sweep.cells[0].load, 0.5);
    EXPECT_EQ(sweep.cells[0].trial, 0);
    EXPECT_EQ(sweep.cells[0].seed, sc.base.seed);
    EXPECT_EQ(sweep.cells[1].trial, 1);
    EXPECT_EQ(sweep.cells[1].seed, sc.base.seed + 1);
    EXPECT_EQ(sweep.cells[2].load, 1.0);
    EXPECT_EQ(sweep.cells[4].buffer, 8U);
    // Every cell ran and recorded a topology.
    for (const ScenarioSweepCell& cell : sweep.cells) {
        EXPECT_FALSE(cell.result.wire_spec.empty());
        EXPECT_GT(cell.trace_events, 0U);
    }
}

TEST(ScenarioSweep, RejectsEmptyAxesAndBadTrials) {
    ScenarioSweepConfig sc;
    sc.base = small_base();
    sc.loads = {1.0};
    sc.trials = 1;
    EXPECT_THROW((void)run_scenario_sweep(sc), std::invalid_argument);
    sc.buffers = {4};
    sc.loads = {};
    EXPECT_THROW((void)run_scenario_sweep(sc), std::invalid_argument);
    sc.loads = {1.0};
    sc.trials = 0;
    EXPECT_THROW((void)run_scenario_sweep(sc), std::invalid_argument);
}

// ---- the determinism contract -------------------------------------------

TEST(ScenarioSweep, JobsOneVsEightAreIdentical) {
    ScenarioSweepConfig sc;
    sc.base = small_base();
    sc.buffers = {4, 8, 16};
    sc.loads = {0.8, 1.2};
    sc.trials = 2;

    sc.jobs = 1;
    const ScenarioSweepResult reference = run_scenario_sweep(sc);
    sc.jobs = 8;
    const ScenarioSweepResult parallel = run_scenario_sweep(sc);

    ASSERT_EQ(reference.cells.size(), parallel.cells.size());
    EXPECT_EQ(reference.combined_digest, parallel.combined_digest);
    for (std::size_t i = 0; i < reference.cells.size(); ++i) {
        const ScenarioSweepCell& a = reference.cells[i];
        const ScenarioSweepCell& b = parallel.cells[i];
        EXPECT_EQ(a.buffer, b.buffer);
        EXPECT_EQ(a.load, b.load);
        EXPECT_EQ(a.trial, b.trial);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.trace_digest, b.trace_digest) << "cell " << i;
        EXPECT_EQ(a.trace_events, b.trace_events) << "cell " << i;
        EXPECT_EQ(a.result.frames_offered, b.result.frames_offered);
        EXPECT_EQ(a.result.frames_delivered, b.result.frames_delivered);
        EXPECT_EQ(a.result.collisions, b.result.collisions);
        EXPECT_EQ(a.result.drops_queue_full, b.result.drops_queue_full);
        EXPECT_EQ(a.result.updates_sent, b.result.updates_sent);
        EXPECT_EQ(a.result.updates_heard, b.result.updates_heard);
        EXPECT_EQ(a.result.largest_cluster, b.result.largest_cluster);
        EXPECT_EQ(a.result.full_sync_time_s, b.result.full_sync_time_s);
        EXPECT_EQ(a.result.end_time_s, b.result.end_time_s);
    }
}

} // namespace
