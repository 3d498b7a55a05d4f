// Tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "sim/engine.hpp"

namespace {

using routesync::sim::Engine;
using routesync::sim::SimTime;
using namespace routesync::sim::literals;

TEST(Engine, NowStartsAtZero) {
    Engine e;
    EXPECT_EQ(e.now(), SimTime::zero());
}

TEST(Engine, CallbackSeesItsOwnTimestamp) {
    Engine e;
    SimTime seen;
    e.schedule_at(3_sec, [&] { seen = e.now(); });
    e.run();
    EXPECT_EQ(seen, 3_sec);
    EXPECT_EQ(e.now(), 3_sec);
}

TEST(Engine, ScheduleAfterIsRelative) {
    Engine e;
    std::vector<double> times;
    e.schedule_at(2_sec, [&] {
        e.schedule_after(1.5_sec, [&] { times.push_back(e.now().sec()); });
    });
    e.run();
    ASSERT_EQ(times.size(), 1U);
    EXPECT_DOUBLE_EQ(times[0], 3.5);
}

TEST(Engine, SchedulingInThePastThrows) {
    Engine e;
    e.schedule_at(5_sec, [] {});
    e.run();
    EXPECT_THROW(e.schedule_at(1_sec, [] {}), std::logic_error);
    EXPECT_THROW(e.schedule_after(SimTime::seconds(-1), [] {}), std::logic_error);
}

TEST(Engine, RunUntilExecutesOnlyEventsUpToLimitInclusive) {
    Engine e;
    std::vector<int> fired;
    e.schedule_at(1_sec, [&] { fired.push_back(1); });
    e.schedule_at(2_sec, [&] { fired.push_back(2); });
    e.schedule_at(3_sec, [&] { fired.push_back(3); });
    e.run_until(2_sec);
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    EXPECT_EQ(e.now(), 2_sec);
    EXPECT_EQ(e.pending_events(), 1U);
}

TEST(Engine, RunUntilAdvancesClockEvenWithoutEvents) {
    Engine e;
    e.run_until(10_sec);
    EXPECT_EQ(e.now(), 10_sec);
}

TEST(Engine, StopHaltsRunFromInsideCallback) {
    Engine e;
    int count = 0;
    for (int i = 1; i <= 10; ++i) {
        e.schedule_at(SimTime::seconds(i), [&] {
            ++count;
            if (count == 4) {
                e.stop();
            }
        });
    }
    e.run();
    EXPECT_EQ(count, 4);
    EXPECT_TRUE(e.stop_requested());
    e.clear_stop();
    e.run();
    EXPECT_EQ(count, 10);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
    Engine e;
    EXPECT_FALSE(e.step());
    e.schedule_at(1_sec, [] {});
    EXPECT_TRUE(e.step());
    EXPECT_FALSE(e.step());
}

TEST(Engine, EventsProcessedCounts) {
    Engine e;
    for (int i = 0; i < 7; ++i) {
        e.schedule_at(SimTime::seconds(i), [] {});
    }
    e.run();
    EXPECT_EQ(e.events_processed(), 7U);
}

TEST(Engine, CancelPreventsExecution) {
    Engine e;
    bool fired = false;
    const auto h = e.schedule_at(1_sec, [&] { fired = true; });
    EXPECT_TRUE(e.cancel(h));
    e.run();
    EXPECT_FALSE(fired);
}

TEST(Engine, SelfPerpetuatingChainRunsToHorizon) {
    Engine e;
    int ticks = 0;
    std::function<void()> tick = [&] {
        ++ticks;
        e.schedule_after(1_sec, tick);
    };
    e.schedule_at(SimTime::zero(), tick);
    e.run_until(100.5_sec);
    EXPECT_EQ(ticks, 101); // t = 0..100
}

/// Counts live copies of a callback's capture.
struct LiveCapture {
    int* live;
    explicit LiveCapture(int* counter) : live{counter} { ++*live; }
    LiveCapture(LiveCapture&& other) noexcept : live{other.live} { other.live = nullptr; }
    LiveCapture(const LiveCapture&) = delete;
    LiveCapture& operator=(const LiveCapture&) = delete;
    LiveCapture& operator=(LiveCapture&&) = delete;
    ~LiveCapture() {
        if (live != nullptr) {
            --*live;
        }
    }
};

TEST(Engine, EachCallbackIsDestroyedRightAfterItRuns) {
    // A callback's captures are released as soon as it has run — before
    // the next event runs, whether the engine is driven by run_until(),
    // run() or step().
    for (int way = 0; way < 3; ++way) {
        Engine e;
        int live = 0;
        std::vector<int> seen;
        e.schedule_at(1_sec, [c = LiveCapture{&live}] {});
        e.schedule_at(2_sec, [&live, &seen] { seen.push_back(live); });
        e.schedule_at(3_sec, [c = LiveCapture{&live}] {});
        e.schedule_at(4_sec, [&live, &seen] { seen.push_back(live); });
        EXPECT_EQ(live, 2);
        if (way == 0) {
            e.run_until(10_sec);
        } else if (way == 1) {
            e.run();
        } else {
            while (e.step()) {
            }
        }
        EXPECT_EQ(seen, (std::vector<int>{1, 0})) << "way " << way;
        EXPECT_EQ(live, 0);
    }
}

TEST(Engine, RunUntilLeavesLaterAndCancelledEventsAlone) {
    Engine e;
    std::vector<int> order;
    const auto dead = e.schedule_at(1_sec, [&] { order.push_back(1); });
    e.schedule_at(2_sec, [&] { order.push_back(2); });
    e.schedule_at(3_sec, [&] { order.push_back(3); });
    ASSERT_TRUE(e.cancel(dead));
    e.run_until(2.5_sec);
    EXPECT_EQ(order, std::vector<int>{2});
    EXPECT_EQ(e.now(), 2.5_sec);
    EXPECT_EQ(e.pending_events(), 1U);
    EXPECT_EQ(e.events_processed(), 1U);
    EXPECT_TRUE(e.step());
    EXPECT_EQ(e.now(), 3_sec);
    EXPECT_FALSE(e.step());
    EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

// ---- in-place grants ---------------------------------------------------------

TEST(Engine, QueuePushesCountsEverySchedule) {
    Engine e;
    e.schedule_at(1_sec, [] {});
    e.schedule_after(2_sec, [] {});
    const auto h = e.schedule_at(3_sec, [] {});
    EXPECT_TRUE(e.cancel(h));
    EXPECT_EQ(e.queue_pushes(), 3U);
    e.run();
    EXPECT_EQ(e.queue_pushes(), 3U);
    EXPECT_EQ(e.events_processed(), 2U);
}

TEST(Engine, RunInlineAtGrantsNothingOutsideARun) {
    Engine e;
    EXPECT_FALSE(e.run_inline_at(1_sec));
    e.run_until(2_sec);
    EXPECT_FALSE(e.run_inline_at(3_sec));
    e.run();
    EXPECT_FALSE(e.run_inline_at(3_sec));
    EXPECT_EQ(e.now(), 2_sec);
    EXPECT_EQ(e.events_processed(), 0U);
}

TEST(Engine, RunGrantsAndCountsTheEvent) {
    // Inside run() an event earlier than everything queued is granted:
    // the clock moves to it and it counts as processed, but nothing is
    // pushed.
    Engine e;
    std::vector<bool> grants;
    std::vector<double> clocks;
    e.schedule_at(1_sec, [&] {
        grants.push_back(e.run_inline_at(1.5_sec));
        clocks.push_back(e.now().sec());
        grants.push_back(e.run_inline_at(1.5_sec)); // again, same instant
        grants.push_back(e.run_inline_at(1.25_sec)); // the past
        grants.push_back(e.run_inline_at(SimTime::seconds(std::nan(""))));
    });
    e.schedule_at(5_sec, [&] { clocks.push_back(e.now().sec()); });
    e.run();
    EXPECT_EQ(grants, (std::vector<bool>{true, true, false, false}));
    EXPECT_EQ(clocks, (std::vector<double>{1.5, 5.0}));
    EXPECT_EQ(e.events_processed(), 4U);
    EXPECT_EQ(e.queue_pushes(), 2U);
}

TEST(Engine, GrantIsStrictlyBeforeEveryQueuedEvent) {
    // A queued event at exactly t was pushed first and runs first, so t
    // is refused; so is any t past it. While a live event is queued, a
    // cancelled entry ahead of it still bounds the grant
    // (next_time_bound counts tombstones): a refusal only forfeits the
    // shortcut.
    Engine e;
    std::vector<bool> grants;
    e.schedule_at(1_sec, [&] {
        grants.push_back(e.run_inline_at(2_sec));
        grants.push_back(e.run_inline_at(2.5_sec));
        grants.push_back(e.run_inline_at(1.75_sec));
    });
    e.schedule_at(2_sec, [&] {
        const auto dead = e.schedule_at(3_sec, [] {});
        e.schedule_at(4_sec, [] {});
        ASSERT_TRUE(e.cancel(dead));
        grants.push_back(e.run_inline_at(3_sec));
        grants.push_back(e.run_inline_at(2.9_sec));
    });
    e.run();
    EXPECT_EQ(grants, (std::vector<bool>{false, false, true, false, true}));
    EXPECT_EQ(e.now(), 4_sec);
}

TEST(Engine, RunUntilGrantsUpToItsTargetOnly) {
    Engine e;
    std::vector<bool> grants;
    e.schedule_at(1_sec, [&] {
        grants.push_back(e.run_inline_at(2.5_sec)); // past the target
        grants.push_back(e.run_inline_at(2_sec));   // at the target
    });
    e.run_until(2_sec);
    EXPECT_EQ(grants, (std::vector<bool>{false, true}));
    EXPECT_EQ(e.now(), 2_sec);
    // The next run brings its own target.
    e.schedule_at(3_sec, [&] { grants.push_back(e.run_inline_at(3.5_sec)); });
    e.run_until(4_sec);
    EXPECT_EQ(grants, (std::vector<bool>{false, true, true}));
    EXPECT_EQ(e.now(), 4_sec);
}

TEST(Engine, PendingStopRefusesTheGrant) {
    Engine e;
    std::vector<bool> grants;
    e.schedule_at(1_sec, [&] {
        e.stop();
        grants.push_back(e.run_inline_at(1.5_sec));
    });
    e.schedule_at(2_sec, [&] { grants.push_back(e.run_inline_at(2.5_sec)); });
    e.run();
    EXPECT_EQ(grants, std::vector<bool>{false});
    EXPECT_EQ(e.now(), 1_sec);
    e.clear_stop();
    e.run();
    EXPECT_EQ(grants, (std::vector<bool>{false, true}));
}

TEST(Engine, StepRunsExactlyOneEventAndGrantsNothing) {
    // step() runs one event, so it grants none — even when the caller is
    // itself inside a run().
    Engine e;
    std::vector<bool> grants;
    e.schedule_at(1_sec, [&] { grants.push_back(e.run_inline_at(1.5_sec)); });
    EXPECT_TRUE(e.step());
    EXPECT_EQ(e.now(), 1_sec);
    EXPECT_EQ(e.events_processed(), 1U);
    e.schedule_at(2_sec, [&] {
        e.schedule_at(3_sec, [&] { grants.push_back(e.run_inline_at(3.5_sec)); });
        EXPECT_TRUE(e.step());
        grants.push_back(e.run_inline_at(4_sec));
    });
    e.run();
    EXPECT_EQ(grants, (std::vector<bool>{false, false, true}));
    EXPECT_EQ(e.now(), 4_sec);
}

} // namespace
