// Tests for cluster bookkeeping, driven with synthetic timer-set events.
#include <gtest/gtest.h>

#include "core/cluster_tracker.hpp"

namespace {

using routesync::core::ClusterTracker;
using routesync::sim::SimTime;
using namespace routesync::sim::literals;

constexpr double kRound = 121.11;

ClusterTracker make_tracker(int n = 5) {
    return ClusterTracker{n, SimTime::seconds(kRound)};
}

TEST(ClusterTracker, SimultaneousEventsFormOneCluster) {
    auto t = make_tracker();
    t.record_events(true);
    t.on_timer_set(0, 10_sec);
    t.on_timer_set(1, 10_sec);
    t.on_timer_set(2, 10_sec);
    t.on_timer_set(3, 50_sec); // closes the first group
    t.finish();
    ASSERT_GE(t.events().size(), 2U);
    EXPECT_EQ(t.events()[0].size, 3);
    EXPECT_EQ(t.events()[1].size, 1);
}

TEST(ClusterTracker, ToleranceSeparatesDistantEvents) {
    auto t = make_tracker();
    t.record_events(true);
    t.on_timer_set(0, 10_sec);
    t.on_timer_set(1, SimTime::seconds(10.001)); // 1 ms > 1 us tolerance
    t.finish();
    EXPECT_EQ(t.events()[0].size, 1);
}

TEST(ClusterTracker, ToleranceJoinsNearbyEvents) {
    ClusterTracker t{3, SimTime::seconds(kRound), SimTime::millis(10)};
    t.record_events(true);
    t.on_timer_set(0, 10_sec);
    t.on_timer_set(1, SimTime::seconds(10.005));
    t.on_timer_set(2, SimTime::seconds(10.009));
    t.finish();
    EXPECT_EQ(t.events()[0].size, 3);
}

TEST(ClusterTracker, FirstTimeSizeAtLeastRecordsGrowth) {
    auto t = make_tracker();
    t.on_timer_set(0, 5_sec);
    t.on_timer_set(1, 5_sec);
    t.on_timer_set(0, 200_sec);
    t.on_timer_set(1, 200_sec);
    t.on_timer_set(2, 200_sec);
    t.finish();
    ASSERT_TRUE(t.first_time_size_at_least(1).has_value());
    EXPECT_EQ(*t.first_time_size_at_least(1), 5_sec);
    ASSERT_TRUE(t.first_time_size_at_least(2).has_value());
    EXPECT_EQ(*t.first_time_size_at_least(2), 5_sec);
    ASSERT_TRUE(t.first_time_size_at_least(3).has_value());
    EXPECT_EQ(*t.first_time_size_at_least(3), 200_sec);
    EXPECT_FALSE(t.first_time_size_at_least(4).has_value());
}

TEST(ClusterTracker, OnFullSyncFiresAtNthMember) {
    ClusterTracker t{3, SimTime::seconds(kRound)};
    SimTime when = SimTime::zero();
    int fires = 0;
    t.on_full_sync = [&](SimTime s) {
        when = s;
        ++fires;
    };
    t.on_timer_set(0, 7_sec);
    t.on_timer_set(1, 7_sec);
    EXPECT_EQ(fires, 0);
    t.on_timer_set(2, 7_sec);
    EXPECT_EQ(fires, 1);
    EXPECT_EQ(when, 7_sec);
}

TEST(ClusterTracker, OnSizeFirstReachedFiresOncePerSize) {
    auto t = make_tracker();
    std::vector<int> sizes;
    t.on_size_first_reached = [&](int s, SimTime) { sizes.push_back(s); };
    t.on_timer_set(0, 1_sec);
    t.on_timer_set(1, 1_sec);
    t.on_timer_set(0, 150_sec);
    t.on_timer_set(1, 150_sec); // size 2 again: no new callback
    t.finish();
    EXPECT_EQ(sizes, (std::vector<int>{1, 2}));
}

TEST(ClusterTracker, RoundsRecordLargestCluster) {
    auto t = make_tracker();
    t.record_rounds(true);
    // Round 0: a pair and a single; round 1: all singles.
    t.on_timer_set(0, 10_sec);
    t.on_timer_set(1, 10_sec);
    t.on_timer_set(2, 20_sec);
    t.on_timer_set(0, SimTime::seconds(kRound + 10));
    t.on_timer_set(1, SimTime::seconds(kRound + 30));
    t.on_timer_set(2, SimTime::seconds(kRound + 50));
    t.finish();
    ASSERT_EQ(t.rounds().size(), 2U);
    EXPECT_EQ(t.rounds()[0].round, 0U);
    EXPECT_EQ(t.rounds()[0].largest, 2);
    EXPECT_EQ(t.rounds()[1].round, 1U);
    EXPECT_EQ(t.rounds()[1].largest, 1);
}

// Rounds are N *events*, not wall-clock buckets: a node whose cycle
// stretches far beyond Tp + Tc still contributes to the same round.
TEST(ClusterTracker, RoundsCountEventsNotWallClock) {
    auto t = make_tracker(); // n = 5: five events per round
    t.record_rounds(true);
    for (int i = 0; i < 5; ++i) {
        t.on_timer_set(i % 2, SimTime::seconds(10 + 400.0 * i)); // spans rounds of time
    }
    t.on_timer_set(0, SimTime::seconds(5000)); // sixth event opens round 1
    t.finish();
    ASSERT_EQ(t.rounds().size(), 2U);
    EXPECT_EQ(t.rounds()[0].round, 0U);
    EXPECT_EQ(t.rounds()[0].largest, 1);
    EXPECT_NEAR(t.rounds()[0].end_time.sec(), 10 + 400.0 * 4, 1e-9);
    EXPECT_EQ(t.rounds()[1].round, 1U);
    EXPECT_EQ(t.rounds_closed(), 2U);
}

// A group that straddles the N-event boundary counts towards both rounds.
TEST(ClusterTracker, StraddlingGroupCountsForBothRounds) {
    ClusterTracker t{3, SimTime::seconds(kRound)};
    t.record_rounds(true);
    t.on_timer_set(0, 1_sec);
    t.on_timer_set(1, 2_sec);
    // Group of 3 covering event indices 2-4: rounds 0 and 1.
    t.on_timer_set(0, 5_sec);
    t.on_timer_set(1, 5_sec);
    t.on_timer_set(2, 5_sec);
    t.on_timer_set(0, 9_sec); // index 5, round 1
    t.finish();
    ASSERT_EQ(t.rounds().size(), 2U);
    EXPECT_EQ(t.rounds()[0].largest, 3);
    EXPECT_EQ(t.rounds()[1].largest, 3);
}

TEST(ClusterTracker, FirstRoundLargestAtMostFindsBreakup) {
    ClusterTracker t{3, SimTime::seconds(kRound)};
    // Round 0 fully synchronized, round 1 a pair, round 2 singles.
    t.on_timer_set(0, 1_sec);
    t.on_timer_set(1, 1_sec);
    t.on_timer_set(2, 1_sec);
    t.on_timer_set(0, SimTime::seconds(kRound + 1));
    t.on_timer_set(1, SimTime::seconds(kRound + 1));
    t.on_timer_set(2, SimTime::seconds(kRound + 60));
    t.on_timer_set(0, SimTime::seconds(2 * kRound + 1));
    t.on_timer_set(1, SimTime::seconds(2 * kRound + 40));
    t.on_timer_set(2, SimTime::seconds(2 * kRound + 80));
    t.finish();
    // Times are the last event of the first qualifying round.
    ASSERT_TRUE(t.first_round_largest_at_most(3).has_value());
    EXPECT_NEAR(t.first_round_largest_at_most(3)->sec(), 1.0, 1e-9);
    ASSERT_TRUE(t.first_round_largest_at_most(2).has_value());
    EXPECT_NEAR(t.first_round_largest_at_most(2)->sec(), kRound + 60, 1e-9);
    ASSERT_TRUE(t.first_round_largest_at_most(1).has_value());
    EXPECT_NEAR(t.first_round_largest_at_most(1)->sec(), 2 * kRound + 80, 1e-9);
}

TEST(ClusterTracker, RoundsWithLargestAtMostCounts) {
    ClusterTracker t{3, SimTime::seconds(kRound)};
    t.on_timer_set(0, 1_sec);
    t.on_timer_set(1, 1_sec);
    t.on_timer_set(0, SimTime::seconds(kRound + 1));
    t.on_timer_set(1, SimTime::seconds(kRound + 50));
    t.finish();
    EXPECT_EQ(t.rounds_closed(), 2U);
    EXPECT_EQ(t.rounds_with_largest_at_most(1), 1U);
    EXPECT_EQ(t.rounds_with_largest_at_most(2), 2U);
    EXPECT_EQ(t.rounds_with_largest_at_most(3), 2U);
}

TEST(ClusterTracker, OutOfOrderEventsThrow) {
    auto t = make_tracker();
    t.on_timer_set(0, 10_sec);
    EXPECT_THROW(t.on_timer_set(1, 5_sec), std::logic_error);
}

TEST(ClusterTracker, QueryBoundsChecked) {
    auto t = make_tracker();
    t.finish();
    EXPECT_THROW((void)t.first_time_size_at_least(0), std::out_of_range);
    EXPECT_THROW((void)t.first_time_size_at_least(6), std::out_of_range);
    EXPECT_THROW((void)t.first_round_largest_at_most(0), std::out_of_range);
    EXPECT_THROW((void)t.rounds_with_largest_at_most(99), std::out_of_range);
}

TEST(ClusterTracker, InvalidConstruction) {
    EXPECT_THROW(ClusterTracker(0, 1_sec), std::invalid_argument);
    EXPECT_THROW(ClusterTracker(3, SimTime::zero()), std::invalid_argument);
    EXPECT_THROW(ClusterTracker(3, 1_sec, SimTime::seconds(-1)),
                 std::invalid_argument);
}

TEST(ClusterTracker, FinishIsIdempotent) {
    auto t = make_tracker();
    t.on_timer_set(0, 1_sec);
    t.finish();
    const auto rounds = t.rounds_closed();
    t.finish();
    EXPECT_EQ(t.rounds_closed(), rounds);
}

TEST(ClusterTracker, ResetReplaysIdenticalSeries) {
    // reset() reuses the tracker's scratch buffers (the experiment
    // driver pools one tracker per thread); a reset tracker fed the same
    // event stream must reproduce the exact ClusterEvent / RoundLargest
    // series and every derived statistic of a fresh one.
    auto feed = [](ClusterTracker& t) {
        // Two rounds (n = 5): clusters of 3 + 2, then a straddling group
        // and a breakup round — exercises groups, spill, and first-hit.
        t.record_events(true);
        t.on_timer_set(0, 10_sec);
        t.on_timer_set(1, 10_sec);
        t.on_timer_set(2, 10_sec);
        t.on_timer_set(3, 40_sec);
        t.on_timer_set(4, 40_sec);
        t.on_timer_set(0, SimTime::seconds(kRound + 10));
        t.on_timer_set(1, SimTime::seconds(kRound + 30));
        t.on_timer_set(2, SimTime::seconds(kRound + 50));
        t.on_timer_set(3, SimTime::seconds(kRound + 70));
        t.on_timer_set(4, SimTime::seconds(kRound + 90));
        t.finish();
    };

    auto t = make_tracker();
    feed(t);
    const std::vector<routesync::core::ClusterEvent> events = t.events();
    const std::vector<routesync::core::RoundLargest> rounds = t.rounds();
    const auto rounds_closed = t.rounds_closed();

    int size_callbacks = 0;
    t.reset(5, SimTime::seconds(kRound));
    t.on_size_first_reached = [&size_callbacks](int, SimTime) {
        ++size_callbacks;
    };
    feed(t);

    ASSERT_EQ(t.events().size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(t.events()[i].time.sec(), events[i].time.sec()) << i;
        EXPECT_EQ(t.events()[i].size, events[i].size) << i;
    }
    ASSERT_EQ(t.rounds().size(), rounds.size());
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        EXPECT_EQ(t.rounds()[i].round, rounds[i].round) << i;
        EXPECT_EQ(t.rounds()[i].largest, rounds[i].largest) << i;
        EXPECT_EQ(t.rounds()[i].end_time.sec(), rounds[i].end_time.sec()) << i;
    }
    EXPECT_EQ(t.rounds_closed(), rounds_closed);
    EXPECT_GT(size_callbacks, 0) << "reset must leave callbacks settable";
    for (int s = 1; s <= 5; ++s) {
        // Derived queries agree with the first pass too.
        auto fresh = make_tracker();
        feed(fresh);
        EXPECT_EQ(t.first_time_size_at_least(s).has_value(),
                  fresh.first_time_size_at_least(s).has_value());
        if (t.first_time_size_at_least(s)) {
            EXPECT_EQ(t.first_time_size_at_least(s)->sec(),
                      fresh.first_time_size_at_least(s)->sec());
        }
        EXPECT_EQ(t.rounds_with_largest_at_most(s),
                  fresh.rounds_with_largest_at_most(s));
    }
}

TEST(ClusterTracker, ResetRevalidatesAndResizes) {
    auto t = make_tracker(5);
    t.on_timer_set(0, 1_sec);
    t.finish();
    EXPECT_THROW(t.reset(0, 1_sec), std::invalid_argument);
    EXPECT_THROW(t.reset(3, SimTime::zero()), std::invalid_argument);
    EXPECT_THROW(t.reset(3, 1_sec, SimTime::seconds(-1)), std::invalid_argument);

    // Reset to a different n: the per-size tables follow the new bound.
    t.reset(2, 1_sec);
    t.on_timer_set(0, 1_sec);
    t.on_timer_set(1, 1_sec);
    t.finish();
    EXPECT_EQ(t.n(), 2);
    EXPECT_TRUE(t.full_sync_time().has_value());
    EXPECT_THROW((void)t.first_time_size_at_least(3), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Metro scale: N = 1e5. The per-size tables are flat sentinel arrays and
// the per-round record is an O(1) histogram bump, so driving a tracker
// this wide through synthetic growth/decay streams is cheap — these tests
// pin down the invariants the big-N figure sweep relies on.

constexpr int kMetroN = 100000;

/// Feeds `t` a deterministic stream: round r (r = 0..rounds-1) holds one
/// cluster of size `largest(r)` followed by singles filling the round to
/// exactly kMetroN events.
template <typename LargestFn>
void feed_metro_rounds(ClusterTracker& t, int rounds, LargestFn largest) {
    double base = 0.0;
    for (int r = 0; r < rounds; ++r) {
        const int big = largest(r);
        for (int i = 0; i < big; ++i) {
            t.on_timer_set(i, SimTime::seconds(base + 1.0));
        }
        for (int i = big; i < kMetroN; ++i) {
            // Singles 1 ms apart (>> the 1 us tolerance) stay unclustered
            // while the whole round still fits inside kRound seconds.
            t.on_timer_set(i, SimTime::seconds(base + 2.0 + 1e-3 * (i - big)));
        }
        base += kRound;
    }
}

TEST(ClusterTracker, MetroScaleGrowthStream) {
    ClusterTracker t{kMetroN, SimTime::seconds(kRound)};
    // Rounds with largest cluster 1, 10, 100, ..., kMetroN: a clean
    // growth staircase.
    const auto largest = [](int r) {
        int s = 1;
        for (int i = 0; i < r; ++i) {
            s *= 10;
        }
        return s;
    };
    feed_metro_rounds(t, 6, largest);
    t.finish();

    EXPECT_TRUE(t.full_sync_time().has_value());
    // first_up is filled exactly up to the running max; growth is one
    // event at a time, so every size has a first-hit.
    SimTime prev = SimTime::zero();
    for (int s = 1; s <= kMetroN; s *= 10) {
        const auto up = t.first_time_size_at_least(s);
        ASSERT_TRUE(up.has_value()) << s;
        EXPECT_GE(up->sec(), prev.sec()) << s;
        prev = *up;
    }
    // Intermediate sizes inherit the first time a *larger* group grew
    // through them: size 37 was first passed on the way to 100.
    ASSERT_TRUE(t.first_time_size_at_least(37).has_value());
    EXPECT_EQ(*t.first_time_size_at_least(37), *t.first_time_size_at_least(100));

    EXPECT_EQ(t.rounds_closed(), 6U);
    EXPECT_EQ(t.rounds_with_largest_at_most(kMetroN), t.rounds_closed());
    // Cumulative counts are monotone in s and count the staircase exactly:
    // sizes below 10 cover only the first round, below 100 two rounds, ...
    EXPECT_EQ(t.rounds_with_largest_at_most(1), 1U);
    EXPECT_EQ(t.rounds_with_largest_at_most(99), 2U);
    EXPECT_EQ(t.rounds_with_largest_at_most(100), 3U);
    std::uint64_t last = 0;
    for (int s = 1; s <= kMetroN; s = s < 10 ? s + 1 : s * 3) {
        const std::uint64_t c = t.rounds_with_largest_at_most(s);
        EXPECT_GE(c, last) << s;
        last = c;
    }
}

TEST(ClusterTracker, MetroScaleDecayFillsFirstDown) {
    ClusterTracker t{kMetroN, SimTime::seconds(kRound)};
    // Largest cluster decays 1e5 -> 1e4 -> ... -> 1: first_down fills
    // from the top as record lows appear.
    const auto largest = [](int r) {
        int s = kMetroN;
        for (int i = 0; i < r; ++i) {
            s /= 10;
        }
        return s;
    };
    feed_metro_rounds(t, 6, largest);
    t.finish();

    // A round whose largest was 1e4 is the first with largest <= s for
    // every s in [1e4, 1e5).
    ASSERT_TRUE(t.first_round_largest_at_most(10000).has_value());
    ASSERT_TRUE(t.first_round_largest_at_most(99999).has_value());
    EXPECT_EQ(*t.first_round_largest_at_most(10000),
              *t.first_round_largest_at_most(99999));
    ASSERT_TRUE(t.first_round_largest_at_most(1).has_value());
    EXPECT_EQ(t.rounds_closed(), 6U);
    EXPECT_EQ(t.rounds_with_largest_at_most(1), 1U);
    EXPECT_EQ(t.rounds_with_largest_at_most(kMetroN), 6U);
    EXPECT_GT(t.state_bytes(), 0U);
}

TEST(ClusterTracker, MetroScaleRecordRoundsAutoGated) {
    // Above kAutoRecordRoundsMaxN the per-round record defaults off (the
    // counters and tables still work); opting back in still records.
    ClusterTracker big{kMetroN, SimTime::seconds(kRound)};
    feed_metro_rounds(big, 2, [](int) { return 2; });
    big.finish();
    EXPECT_EQ(big.rounds_closed(), 2U);
    EXPECT_TRUE(big.rounds().empty());

    ClusterTracker small{ClusterTracker::kAutoRecordRoundsMaxN,
                         SimTime::seconds(kRound)};
    small.on_timer_set(0, 1_sec);
    small.on_timer_set(1, SimTime::seconds(kRound + 1.0));
    small.finish();
    EXPECT_EQ(small.rounds().size(), small.rounds_closed());

    ClusterTracker opted{kMetroN, SimTime::seconds(kRound)};
    opted.record_rounds(true);
    feed_metro_rounds(opted, 2, [](int) { return 2; });
    opted.finish();
    EXPECT_EQ(opted.rounds().size(), 2U);
}

TEST(ClusterTracker, MetroScaleResetMatchesFresh) {
    // A tracker reset at metro scale is indistinguishable from a fresh
    // one: identical queries across the whole size axis.
    const auto largest = [](int r) { return (r + 1) * 12345 % kMetroN + 1; };
    const auto feed = [&](ClusterTracker& t) {
        feed_metro_rounds(t, 8, largest);
        t.finish();
    };

    ClusterTracker fresh{kMetroN, SimTime::seconds(kRound)};
    feed(fresh);

    ClusterTracker pooled{kMetroN, SimTime::seconds(kRound)};
    feed_metro_rounds(pooled, 3, [](int) { return 7; }); // dirty it first
    pooled.finish();
    pooled.reset(kMetroN, SimTime::seconds(kRound));
    feed(pooled);

    EXPECT_EQ(pooled.rounds_closed(), fresh.rounds_closed());
    for (int s = 1; s <= kMetroN; s = s < 16 ? s + 1 : s * 2 - 7) {
        ASSERT_EQ(pooled.first_time_size_at_least(s).has_value(),
                  fresh.first_time_size_at_least(s).has_value())
            << s;
        if (fresh.first_time_size_at_least(s)) {
            EXPECT_EQ(pooled.first_time_size_at_least(s)->sec(),
                      fresh.first_time_size_at_least(s)->sec())
                << s;
        }
        ASSERT_EQ(pooled.first_round_largest_at_most(s).has_value(),
                  fresh.first_round_largest_at_most(s).has_value())
            << s;
        EXPECT_EQ(pooled.rounds_with_largest_at_most(s),
                  fresh.rounds_with_largest_at_most(s))
            << s;
    }
}

} // namespace
