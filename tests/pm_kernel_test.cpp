// Tests for the PM fast-path kernel (core/pm_kernel.hpp).
//
// The kernel's contract is *bit-identity* with the engine-backed
// PeriodicMessagesModel: same RNG draw order, same (time, FIFO) event
// execution order, same events_processed count, same callback and trace
// streams, and the same final node state — on both event queues and in
// both run loops (plain and general). The tests here enforce that over a
// randomized sample of the whole parameter space (N, Tp, Tr, Tc, start
// condition, notification mode, reset-at-expiry, per-node periods and
// costs, explicit phases, timer policies, triggered updates, scheduled
// hooks), then again at the
// run_experiment level where the ClusterTracker series and metrics
// snapshots must agree field for field, and fuzz both queues against a
// reference ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/core.hpp"
#include "obs/profiler.hpp"
#include "obs/sync_monitor.hpp"
#include "obs/trace_sink.hpp"
#include "obs/tracer.hpp"
#include "sim/sim.hpp"

namespace {

using namespace routesync;

// ---------------------------------------------------------------------------
// Both event queues vs a reference (time, seq)-ordered vector.

struct RefEvent {
    double time;
    std::uint64_t seq;
    std::uint32_t kind;
    std::uint32_t node;
};

bool ref_before(const RefEvent& a, const RefEvent& b) {
    if (a.time != b.time) {
        return a.time < b.time;
    }
    return a.seq < b.seq;
}

TEST(PmCalendarQueue, MatchesReferenceOrderUnderFuzz) {
    std::mt19937_64 rng{20260805};
    for (int round = 0; round < 50; ++round) {
        // Mixed horizons: accurate, too small (everything overflows), and
        // degenerate-tiny. The queue must stay correct for all of them.
        const double horizon =
            round % 3 == 0 ? 100.0 : (round % 3 == 1 ? 1.0 : 1e-6);
        core::PmCalendarQueue q{horizon};
        std::vector<RefEvent> ref;
        std::uint64_t seq = 0;
        double now = 0.0;
        std::uniform_real_distribution<double> ahead{0.0, 150.0};
        std::uniform_int_distribution<int> burst{1, 8};
        while (seq < 400 || !ref.empty()) {
            // Push a burst at or after `now` (the kernel only schedules
            // from dispatch, so pushes never precede the cursor).
            if (seq < 400) {
                const int k = burst(rng);
                double last = now;
                for (int i = 0; i < k; ++i) {
                    // Every other push reuses the previous time: FIFO
                    // tie-break coverage.
                    const double t = i % 2 == 0 ? now + ahead(rng) : last;
                    last = t;
                    // The node field carries the seq, so every pop names
                    // exactly which push it served.
                    const auto kind = static_cast<std::uint32_t>(seq % 4);
                    const auto node = static_cast<std::uint32_t>(seq);
                    q.push(t, seq, kind, node);
                    ref.push_back({t, seq, kind, node});
                    ++seq;
                }
            }
            // Pop a few and check exact agreement with the reference.
            const int pops = burst(rng);
            for (int i = 0; i < pops && !ref.empty(); ++i) {
                const auto it = std::min_element(ref.begin(), ref.end(), ref_before);
                ASSERT_FALSE(q.empty());
                const core::PmEvent& e = q.peek_min();
                ASSERT_EQ(e.time, it->time);
                ASSERT_EQ(e.kind, it->kind);
                ASSERT_EQ(e.node, it->node);
                now = e.time;
                q.pop_min();
                ref.erase(it);
            }
        }
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(q.size(), 0U);
    }
}

TEST(PmCalendarQueue, DrainsOverflowAcrossManyHorizons) {
    // Events spread over ~1000x the horizon force repeated
    // overflow->bucket folds and long bitmap skips.
    core::PmCalendarQueue q{1.0};
    std::mt19937_64 rng{7};
    std::uniform_real_distribution<double> t{0.0, 1000.0};
    std::vector<RefEvent> ref;
    for (std::uint64_t s = 0; s < 500; ++s) {
        const double at = t(rng);
        q.push(at, s, 0, static_cast<std::uint32_t>(s));
        ref.push_back({at, s, 0, static_cast<std::uint32_t>(s)});
    }
    std::stable_sort(ref.begin(), ref.end(), ref_before);
    for (const RefEvent& want : ref) {
        ASSERT_FALSE(q.empty());
        const core::PmEvent& e = q.peek_min();
        EXPECT_EQ(e.time, want.time);
        EXPECT_EQ(e.node, want.node);
        q.pop_min();
    }
    EXPECT_TRUE(q.empty());
}

TEST(PmCalendarQueue, SameDayBurstDrainsWithInterleavedPushes) {
    // The batched-expiry regime: thousands of (often equal-time) events
    // land in ONE calendar day, the bucket is sorted once into a run, and
    // pushes keep arriving for the same day while the run drains — the
    // spill heap must interleave them in exact (time, seq) order. This is
    // what a synchronized metro-scale cluster does to the queue every
    // round.
    std::mt19937_64 rng{0xb0c1e7ULL};
    const auto min_cmp = [](const RefEvent& a, const RefEvent& b) {
        return ref_before(b, a); // std::priority_queue keeps the max on top
    };
    std::priority_queue<RefEvent, std::vector<RefEvent>, decltype(min_cmp)>
        ref(min_cmp);
    core::PmCalendarQueue q{100.0}; // day width ~0.1 s
    std::uint64_t seq = 0;
    const double day_start = 50.0;
    std::uniform_real_distribution<double> jitter{0.0, 0.04};
    const auto push = [&](double t) {
        q.push(t, seq, 0, static_cast<std::uint32_t>(seq));
        ref.push(RefEvent{t, seq, 0, static_cast<std::uint32_t>(seq)});
        ++seq;
    };

    // 4000 events before the first pop: ~half exactly equal-time (the
    // synchronized-cluster shape), the rest jittered inside the same day.
    for (int i = 0; i < 4000; ++i) {
        push(i % 2 == 0 ? day_start : day_start + jitter(rng));
    }
    std::uint64_t pops = 0;
    while (!ref.empty()) {
        ASSERT_FALSE(q.empty());
        const core::PmEvent& e = q.peek_min();
        const RefEvent want = ref.top();
        ASSERT_EQ(e.time, want.time) << "pop " << pops;
        ASSERT_EQ(e.node, want.node) << "pop " << pops;
        const double now = e.time;
        q.pop_min();
        ref.pop();
        ++pops;
        // While the sorted run drains, keep feeding the same day (pushes
        // at the current time land in the already-sorted cursor bucket —
        // the spill path). Stop feeding eventually so the test ends.
        if (pops % 8 == 0 && seq < 6000) {
            for (int i = 0; i < 4; ++i) {
                push(now + (i % 2 == 0 ? 0.0 : jitter(rng) * 1e-3));
            }
        }
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(pops, seq);
}

/// Pops one event from `q` (either queue) and checks it against the
/// reference minimum.
template <typename Queue>
void expect_pop_matches(Queue& q, std::vector<RefEvent>& ref, double& now) {
    const auto it = std::min_element(ref.begin(), ref.end(), ref_before);
    ASSERT_FALSE(q.empty());
    ASSERT_EQ(q.size(), ref.size());
    const core::PmEvent& e = q.peek_min();
    ASSERT_EQ(e.time, it->time);
    ASSERT_EQ(e.kind, it->kind);
    ASSERT_EQ(e.node, it->node);
    now = e.time;
    q.pop_min();
    ref.erase(it);
}

// ---------------------------------------------------------------------------
// PmCalendarQueue paths one at a time: the busy-check lane, the cursor
// bound and the day sort, each against the reference (time, seq) order.

/// A calendar queue and its reference, pushed in step. Each push's node
/// field carries its seq, so every pop names exactly which push it served.
struct CalendarHarness {
    core::PmCalendarQueue q;
    std::vector<RefEvent> ref;
    std::uint64_t seq = 0;

    explicit CalendarHarness(double horizon) : q{horizon} {}

    /// Pushes with an explicit seq (the buckets order by the stored seq,
    /// whatever the push order; the lane needs increasing seqs).
    void push_as(double t, std::uint32_t kind, std::uint64_t s) {
        const auto node = static_cast<std::uint32_t>(s);
        q.push(t, s, kind, node);
        ref.push_back({t, s, kind, node});
    }
    void push(double t, std::uint32_t kind) { push_as(t, kind, seq++); }
    void push_timer(double t) { push(t, core::kPmTimer); }
    void push_check(double t) { push(t, core::kPmBusyCheck); }

    void expect_pop() {
        double now = 0.0;
        expect_pop_matches(q, ref, now);
    }

    /// Pops everything left with no pushes in between (the reference is
    /// sorted once, so large days stay cheap) and checks the order.
    void expect_drain() {
        std::sort(ref.begin(), ref.end(), ref_before);
        for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_FALSE(q.empty()) << "pop " << i;
            const core::PmEvent& e = q.peek_min();
            ASSERT_EQ(e.time, ref[i].time) << "pop " << i;
            ASSERT_EQ(e.node, ref[i].node) << "pop " << i << " at t = " << ref[i].time;
            q.pop_min();
        }
        ref.clear();
        EXPECT_TRUE(q.empty());
    }
};

TEST(PmCalendarQueue, LaneCheckTiesBucketedTimerInPushOrder) {
    // Equal times across the lane and a bucket: seq decides, whichever
    // was pushed first. Covered on an unsorted day, on the sorted cursor
    // day (the timer then rides the spill) and with the lane already
    // holding an earlier check.
    for (const bool check_first : {true, false}) {
        CalendarHarness h{100.0};
        const auto tie = [&](double t) {
            if (check_first) {
                h.push_check(t);
                h.push_timer(t);
            } else {
                h.push_timer(t);
                h.push_check(t);
            }
        };
        tie(5.0);
        ASSERT_NO_FATAL_FAILURE(h.expect_pop());
        tie(5.0); // if the first pop left the day sorted, timers spill
        h.push_timer(5.0);
        ASSERT_NO_FATAL_FAILURE(h.expect_pop());
        tie(40.0);
        while (!h.ref.empty()) {
            ASSERT_NO_FATAL_FAILURE(h.expect_pop()) << "check_first " << check_first;
        }
        EXPECT_TRUE(h.q.empty());
    }
}

TEST(PmCalendarQueue, CheckBeforeLaneTailIsServedFromBuckets) {
    // With per-node busy periods a check can be due before the newest
    // queued one; it falls back to the buckets and still pops in order,
    // and the lane keeps taking checks at or after its tail.
    CalendarHarness h{100.0};
    h.push_check(10.0);
    h.push_check(7.0);  // before the lane tail: bucket
    h.push_timer(8.0);
    h.push_check(10.0); // equal to the tail: lane, behind the first
    h.push_check(9.5);  // bucket again
    h.push_check(12.0);
    h.push_timer(10.0);
    ASSERT_NO_FATAL_FAILURE(h.expect_pop()); // t = 7
    h.push_check(7.01);                      // bucket, on the cursor day
    while (!h.ref.empty()) {
        ASSERT_NO_FATAL_FAILURE(h.expect_pop());
    }
    EXPECT_TRUE(h.q.empty());
}

TEST(PmCalendarQueue, CursorStopsAtLaneHeadDay) {
    // The lane head is due long before the next bucketed event. Serving
    // it must not move the day cursor past it: a push that lands between
    // the two has to come out before the bucketed event.
    CalendarHarness h{100.0}; // day width ~0.1 s, window ~100 s
    h.push_timer(90.0);
    h.push_check(1.0);
    ASSERT_NO_FATAL_FAILURE(h.expect_pop()); // the check, t = 1
    h.push_timer(50.0);                      // between the two
    h.push_check(60.0);
    h.push_timer(55.0);
    for (int i = 0; i < 4; ++i) {
        ASSERT_NO_FATAL_FAILURE(h.expect_pop()) << "pop " << i;
    }
    EXPECT_TRUE(h.q.empty());
}

/// The lane's state when a large day is sorted, which picks the day
/// sort's path: `Unused` (the ring never grew, so it cannot hold the day)
/// and `Busy` (the ring holds a check) permute the day in place; `Idle`
/// (the ring is empty and at least as large as the day) scatters it
/// through the ring.
enum class LaneWhenSorted { Unused, Idle, Busy };

const char* lane_name(LaneWhenSorted lane) {
    switch (lane) {
    case LaneWhenSorted::Unused:
        return "lane unused";
    case LaneWhenSorted::Idle:
        return "lane idle";
    case LaneWhenSorted::Busy:
        return "lane busy";
    }
    return "";
}

/// Brings h's lane to `lane` for a day of up to `k` events at 500 .. 501 s:
/// k checks through the ring (growing it to hold k) and, for `Busy`, one
/// more check left queued at 900 s, after the day.
void prepare_lane(CalendarHarness& h, std::size_t k, LaneWhenSorted lane) {
    if (lane == LaneWhenSorted::Unused) {
        return;
    }
    for (std::size_t i = 0; i < k; ++i) {
        h.push_check(1.0);
    }
    ASSERT_NO_FATAL_FAILURE(h.expect_drain());
    if (lane == LaneWhenSorted::Busy) {
        h.push_check(900.0);
    }
}

/// Pushes `times` as timers (all inside one calendar day of a queue with
/// a 1 s day width), with the lane in state `lane` when the day is sorted,
/// and checks that the day drains in (time, seq) order.
void expect_day_drains_in_order(const std::vector<double>& times, LaneWhenSorted lane) {
    CalendarHarness h{1024.0};
    ASSERT_NO_FATAL_FAILURE(prepare_lane(h, times.size(), lane));
    for (const double t : times) {
        h.push_timer(t);
    }
    ASSERT_NO_FATAL_FAILURE(h.expect_drain()) << times.size() << " events, "
                                              << lane_name(lane);
}

TEST(PmCalendarQueue, LargeDaysSortExactly) {
    // Every shape on both day-sort paths: in place (the lane unused, or
    // holding a check) and through the idle lane.
    for (const LaneWhenSorted lane :
         {LaneWhenSorted::Unused, LaneWhenSorted::Idle, LaneWhenSorted::Busy}) {
        std::mt19937_64 rng{0xda75ULL};
        std::uniform_real_distribution<double> in_day{500.0, 501.0};
        for (const std::size_t k : {std::size_t{33}, std::size_t{1000}, std::size_t{30000}}) {
            std::vector<double> uniform(k);
            for (double& t : uniform) {
                t = in_day(rng);
            }
            ASSERT_NO_FATAL_FAILURE(expect_day_drains_in_order(uniform, lane));
        }

        // Two tight clusters at the ends of the day: nearly every event
        // lands in the first or the last slot.
        std::uniform_real_distribution<double> tight{0.0, 1e-9};
        std::vector<double> clusters(2000);
        for (std::size_t i = 0; i < clusters.size(); ++i) {
            clusters[i] = (i % 2 == 0 ? 500.01 : 500.99) + tight(rng);
        }
        ASSERT_NO_FATAL_FAILURE(expect_day_drains_in_order(clusters, lane));

        // Ulp-adjacent times, shuffled, some repeated: a span of a few
        // hundred ulps over ~k/2 slots.
        std::vector<double> ulps;
        double t = 500.25;
        for (int i = 0; i < 700; ++i) {
            ulps.push_back(t);
            if (i % 3 == 0) {
                ulps.push_back(t);
            }
            t = std::nextafter(t, 501.0);
        }
        std::shuffle(ulps.begin(), ulps.end(), rng);
        ASSERT_NO_FATAL_FAILURE(expect_day_drains_in_order(ulps, lane));

        // Equal-time runs: 1000 events over 20 distinct times, in random
        // order, so every slot holds ties that only seq can order.
        std::vector<double> runs(1000);
        for (double& r : runs) {
            r = 500.0 + 0.05 * static_cast<double>(rng() % 20);
        }
        ASSERT_NO_FATAL_FAILURE(expect_day_drains_in_order(runs, lane));

        // An equal-time burst in push order (the re-arm burst shape) and
        // one with a single straggler ahead of it.
        std::vector<double> burst(5000, 500.5);
        ASSERT_NO_FATAL_FAILURE(expect_day_drains_in_order(burst, lane));
        burst.push_back(500.25);
        ASSERT_NO_FATAL_FAILURE(expect_day_drains_in_order(burst, lane));

        // A day whose bucket holds its ties in descending seq.
        CalendarHarness reversed{1024.0};
        ASSERT_NO_FATAL_FAILURE(prepare_lane(reversed, 1000, lane));
        const std::uint64_t base = reversed.seq;
        for (std::uint64_t s = 0; s < 1000; ++s) {
            reversed.push_as(500.0 + 0.1 * static_cast<double>(s % 7), core::kPmTimer,
                             base + 1000 - s);
        }
        ASSERT_NO_FATAL_FAILURE(reversed.expect_drain()) << lane_name(lane);
    }
}

TEST(PmCalendarQueue, OverflowFoldedDaySortsTiesBySeq) {
    // Events pushed beyond the horizon wait in the overflow and are folded
    // into their day's bucket when the cursor comes within a horizon of
    // them; later pushes for the same day then land directly behind them.
    // Half of each batch shares one time, so the day's ties span the fold
    // and the direct pushes, and only seq can order them.
    std::mt19937_64 rng{0xf01dULL};
    CalendarHarness h{1024.0}; // day width 1 s, window 1024 s
    for (int i = 0; i < 600; ++i) {
        h.push_timer(i % 2 == 0 ? 2000.5 : 2000.0 + 0.001 * static_cast<double>(rng() % 997));
    }
    h.push_timer(1000.0);
    ASSERT_NO_FATAL_FAILURE(h.expect_pop()); // cursor -> day 1000
    for (int i = 0; i < 600; ++i) {
        h.push_timer(i % 2 == 0 ? 2000.5 : 2000.0 + 0.001 * static_cast<double>(rng() % 997));
    }
    ASSERT_NO_FATAL_FAILURE(h.expect_drain());
}

// ---------------------------------------------------------------------------
// PmSortedRunQueue: the same reference order, with the kernel's push
// discipline (increasing seqs, times never before the last pop). The run
// keeps no seq, so each push's node field carries its seq.

TEST(PmSortedRunQueue, HoldServesOnlyStrictlyEarlierTimes) {
    // The hold slot carries the newest (largest-seq) push. At an equal
    // time the queued event's smaller seq must win; only a strictly
    // earlier hold jumps the run.
    core::PmSortedRunQueue q;
    q.push(5.0, 0, 0, 0);
    q.push(7.0, 1, 0, 1);
    q.push(5.0, 2, 0, 2); // hold: ties the run head at t = 5
    ASSERT_EQ(q.size(), 3U);
    EXPECT_EQ(q.peek_min().node, 0U);
    q.pop_min();
    EXPECT_EQ(q.peek_min().node, 2U);
    q.pop_min();
    q.push(6.0, 3, 0, 3); // hold strictly before the run head (t = 7)
    EXPECT_EQ(q.peek_min().node, 3U);
    q.pop_min();
    EXPECT_EQ(q.peek_min().node, 1U);
    q.pop_min();
    EXPECT_TRUE(q.empty());
}

TEST(PmSortedRunQueue, MatchesReferenceOrderUnderFuzz) {
    std::mt19937_64 rng{20261017};
    std::uniform_real_distribution<double> ahead{0.0, 150.0};
    std::uniform_int_distribution<int> burst{1, 8};
    for (int round = 0; round < 50; ++round) {
        core::PmSortedRunQueue q;
        std::vector<RefEvent> ref;
        std::uint64_t seq = 0;
        double now = 0.0;
        const auto push = [&](double t) {
            const auto kind = static_cast<std::uint32_t>(seq % 5);
            const auto node = static_cast<std::uint32_t>(seq);
            q.push(t, seq, kind, node);
            ref.push_back({t, seq, kind, node});
            ++seq;
        };
        // Every other round pre-fills a few hundred events, so the head
        // cursor runs far past the 64-pop compaction point while the run
        // still holds live events.
        if (round % 2 == 0) {
            for (int i = 0; i < 300; ++i) {
                push(i % 3 == 0 ? now : now + ahead(rng));
            }
        }
        while (seq < 700 || !ref.empty()) {
            if (seq < 700) {
                const int k = burst(rng);
                double last = now;
                for (int i = 0; i < k; ++i) {
                    // Equal-time FIFO ties three ways: a push at the
                    // current time, a repeat of the previous push's time,
                    // and a fresh time ahead.
                    const int mode = static_cast<int>(rng() % 3);
                    const double t =
                        mode == 0 ? now : (mode == 1 ? last : now + ahead(rng));
                    last = t;
                    push(t);
                }
            }
            const int pops = burst(rng);
            for (int i = 0; i < pops && !ref.empty(); ++i) {
                ASSERT_NO_FATAL_FAILURE(expect_pop_matches(q, ref, now))
                    << "round " << round;
            }
        }
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(q.size(), 0U);
    }
}

TEST(PmSortedRunQueue, SameTimeBurstDrainsInFifoOrder) {
    // A synchronized cluster's shape: thousands of equal-time events,
    // drained while same-time pushes keep arriving behind them.
    std::mt19937_64 rng{0x5a5eULL};
    std::uniform_real_distribution<double> jitter{0.0, 0.04};
    core::PmSortedRunQueue q;
    std::vector<RefEvent> ref;
    std::uint64_t seq = 0;
    const auto push = [&](double t) {
        q.push(t, seq, 0, static_cast<std::uint32_t>(seq));
        ref.push_back({t, seq, 0, static_cast<std::uint32_t>(seq)});
        ++seq;
    };
    for (int i = 0; i < 4000; ++i) {
        push(i % 4 == 0 ? 50.0 + jitter(rng) : 50.0);
    }
    // The reference is kept sorted here: min_element over 4000 entries
    // per pop would dominate the test.
    std::stable_sort(ref.begin(), ref.end(), ref_before);
    std::size_t next = 0;
    std::uint64_t pops = 0;
    while (!q.empty()) {
        const core::PmEvent& e = q.peek_min();
        ASSERT_LT(next, ref.size());
        ASSERT_EQ(e.time, ref[next].time) << "pop " << pops;
        ASSERT_EQ(e.node, ref[next].node) << "pop " << pops;
        const double now = e.time;
        q.pop_min();
        ++next;
        ++pops;
        if (pops % 8 == 0 && seq < 6000) {
            for (int i = 0; i < 3; ++i) {
                push(now);
            }
            std::stable_sort(ref.begin() + static_cast<std::ptrdiff_t>(next),
                             ref.end(), ref_before);
        }
    }
    EXPECT_EQ(next, ref.size());
    EXPECT_EQ(pops, seq);
}

TEST(PmSortedRunQueue, AllLaterThanReadsHoldAndHead) {
    core::PmSortedRunQueue q;
    EXPECT_TRUE(q.all_later_than(0.0)); // empty
    q.push(5.0, 0, core::kPmTimer, 0);  // the hold
    EXPECT_TRUE(q.all_later_than(4.9));
    EXPECT_FALSE(q.all_later_than(5.0)); // strictly later only
    q.push(7.0, 1, core::kPmTimer, 1); // 5.0 moves into the run
    EXPECT_TRUE(q.all_later_than(4.9));
    EXPECT_FALSE(q.all_later_than(5.0));
    q.push(3.0, 2, core::kPmBusyCheck, 2); // the hold is the minimum
    EXPECT_TRUE(q.all_later_than(2.9));
    EXPECT_FALSE(q.all_later_than(3.0));
    // No side effects: the queue still serves 3, 5, 7.
    for (const double want : {3.0, 5.0, 7.0}) {
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(q.peek_min().time, want);
        q.pop_min();
    }
    EXPECT_TRUE(q.empty());
}

TEST(PmCalendarQueue, AllLaterThanDecidesOnlyOnTheCursorDay) {
    core::PmCalendarQueue q{1024.0}; // 1 s days
    q.push(0.5, 0, core::kPmTimer, 0);
    q.push(0.8, 1, core::kPmTimer, 1);
    // The cursor day is not sorted yet: no answer.
    EXPECT_FALSE(q.all_later_than(0.1));
    EXPECT_EQ(q.peek_min().time, 0.5);
    q.pop_min(); // the cursor day is now a sorted run at 0.8
    EXPECT_TRUE(q.all_later_than(0.6));
    EXPECT_FALSE(q.all_later_than(0.8));
    // A later day is never decided, even when every event is later.
    q.push(5.0, 2, core::kPmTimer, 2);
    EXPECT_FALSE(q.all_later_than(1.5));
    // The lane head and the spill top count on the cursor day.
    q.push(0.7, 3, core::kPmBusyCheck, 3); // lane
    EXPECT_TRUE(q.all_later_than(0.65));
    EXPECT_FALSE(q.all_later_than(0.7));
    q.push(0.75, 4, core::kPmTimer, 4); // spill: the day is already sorted
    EXPECT_TRUE(q.all_later_than(0.65));
    EXPECT_EQ(q.peek_min().time, 0.7);
    q.pop_min();
    EXPECT_TRUE(q.all_later_than(0.72));
    EXPECT_FALSE(q.all_later_than(0.75));
    // No side effects: the queue still serves 0.75, 0.8, 5.
    for (const double want : {0.75, 0.8, 5.0}) {
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(q.peek_min().time, want);
        q.pop_min();
    }
    EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Randomized differential: the kernel vs the engine-backed model.

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffU;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t hash_bits(std::uint64_t h, double d) {
    return fnv1a(h, std::bit_cast<std::uint64_t>(d));
}

/// One callback of a run, as StreamHash logs it when asked to.
struct StreamEvent {
    bool transmit; ///< on_transmit (a fire); false: on_timer_set (a re-arm)
    int node;
    sim::SimTime t;
};

/// Callback stream digest: every on_transmit / on_timer_set / hook event,
/// in order, folded into one hash. Any reordering, drop, or changed
/// timestamp diverges the digest. With `log` set, the transmit and re-arm
/// events are also recorded there.
struct StreamHash {
    std::uint64_t h = 1469598103934665603ULL;
    std::vector<StreamEvent>* log = nullptr;
    void transmit(int node, sim::SimTime t) {
        h = fnv1a(h, 0x11);
        h = fnv1a(h, static_cast<std::uint64_t>(node));
        h = hash_bits(h, t.sec());
        if (log != nullptr) {
            log->push_back(StreamEvent{true, node, t});
        }
    }
    void timer_set(int node, sim::SimTime t) {
        h = fnv1a(h, 0x22);
        h = fnv1a(h, static_cast<std::uint64_t>(node));
        h = hash_bits(h, t.sec());
        if (log != nullptr) {
            log->push_back(StreamEvent{false, node, t});
        }
    }
    void hook(sim::SimTime t) {
        h = fnv1a(h, 0x33);
        h = hash_bits(h, t.sec());
    }
};

/// Trace sink that digests every event field — any dropped, reordered,
/// or re-payloaded trace event diverges the hash.
struct HashSink final : obs::TraceSink {
    std::uint64_t h = 1469598103934665603ULL;
    void on_event(const obs::TraceEvent& e) override {
        h = fnv1a(h, e.seq);
        h = hash_bits(h, e.time.sec());
        h = fnv1a(h, static_cast<std::uint64_t>(e.type));
        h = fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.node)));
        h = fnv1a(h, static_cast<std::uint64_t>(e.a));
        h = hash_bits(h, e.b);
        h = hash_bits(h, e.x);
    }
};

std::uint64_t node_state_hash(std::uint64_t h, const core::NodeView& v) {
    h = hash_bits(h, v.next_expiry.sec());
    h = hash_bits(h, v.busy_until.sec());
    h = fnv1a(h, v.busy ? 1 : 0);
    h = fnv1a(h, v.transmissions);
    return h;
}

core::ModelParams sample_params(std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u{0.0, 1.0};
    core::ModelParams p;
    p.n = 1 + static_cast<int>(rng() % 24);
    p.tp = sim::SimTime::seconds(5.0 + 145.0 * u(rng));
    p.tr = sim::SimTime::seconds(u(rng) < 0.1 ? 0.0 : p.tp.sec() * 0.05 * u(rng));
    p.tc = sim::SimTime::seconds(u(rng) < 0.1 ? 0.0 : 0.01 + 0.5 * u(rng));
    p.start = u(rng) < 0.5 ? core::StartCondition::Unsynchronized
                           : core::StartCondition::Synchronized;
    p.seed = rng();
    p.reset_at_expiry = u(rng) < 0.25;
    p.notification = u(rng) < 0.8 ? core::Notification::Immediate
                                  : core::Notification::AfterPreparation;
    if (u(rng) < 0.2) {
        p.initial_phases.resize(static_cast<std::size_t>(p.n));
        for (double& ph : p.initial_phases) {
            ph = u(rng) * p.tp.sec();
        }
    }
    if (u(rng) < 0.15) {
        p.per_node_tp.resize(static_cast<std::size_t>(p.n));
        for (double& tp : p.per_node_tp) {
            tp = p.tp.sec() * (0.8 + 0.4 * u(rng));
        }
    }
    if (u(rng) < 0.15) {
        p.per_node_tc.resize(static_cast<std::size_t>(p.n));
        for (double& tc : p.per_node_tc) {
            tc = p.tc.sec() * (0.5 + u(rng));
        }
    }
    return p;
}

/// One randomized trial: params plus an explicit timer policy (0 =
/// default UniformJitter, 1 = HalfPeriodJitter, 2 = FixedInterval), a run
/// horizon, an optional trigger-all wave, tracing, and an optional chain
/// of scheduled hooks (the ResourceSampler's mechanism).
struct TrialSpec {
    core::ModelParams params;
    int policy_kind = 0;
    sim::SimTime horizon = sim::SimTime::zero();
    bool trigger = false;
    sim::SimTime trig_at = sim::SimTime::zero();
    bool trace = false;
    int hooks = 0; ///< chain length; each hook schedules the next
    sim::SimTime hook_every = sim::SimTime::zero();
    /// run_until targets before the horizon, ascending; empty = one call.
    std::vector<sim::SimTime> stops;
};

std::unique_ptr<core::TimerPolicy> make_policy(const TrialSpec& spec) {
    switch (spec.policy_kind) {
    case 1:
        return std::make_unique<core::HalfPeriodJitter>(spec.params.tp);
    case 2:
        return std::make_unique<core::FixedInterval>(spec.params.tp);
    default:
        return nullptr; // default: UniformJitter(tp, tr)
    }
}

TrialSpec sample_trial(std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u{0.0, 1.0};
    TrialSpec spec;
    spec.params = sample_params(rng);
    const double pk = u(rng);
    spec.policy_kind = pk < 0.7 ? 0 : (pk < 0.85 ? 1 : 2);
    spec.horizon =
        sim::SimTime::seconds(spec.params.tp.sec() * (3.0 + 7.0 * u(rng)));
    spec.trigger = u(rng) < 0.2;
    spec.trig_at = sim::SimTime::seconds(spec.horizon.sec() * 0.45);
    spec.trace = u(rng) < 0.35;
    if (u(rng) < 0.15) {
        spec.hooks = 1 + static_cast<int>(rng() % 12);
        spec.hook_every = sim::SimTime::seconds(spec.horizon.sec() * 0.07);
    }
    return spec;
}

/// A metro-side trial: n at or just above the calendar threshold, a few
/// rounds of the Figure 15 shape (a synchronized start keeps the whole
/// cluster in one calendar day).
TrialSpec metro_trial(int n, std::uint64_t seed, bool synchronized) {
    TrialSpec spec;
    spec.params.n = n;
    spec.params.tp = sim::SimTime::seconds(121.0);
    spec.params.tc = sim::SimTime::seconds(0.11);
    spec.params.tr = sim::SimTime::seconds(0.3);
    spec.params.start = synchronized ? core::StartCondition::Synchronized
                                     : core::StartCondition::Unsynchronized;
    spec.params.seed = seed;
    spec.horizon = sim::SimTime::seconds(400.0);
    spec.trace = true;
    return spec;
}

/// Everything a kernel (or its engine twin) exposes at the end of a run,
/// plus what it exposed after each earlier run_until call.
struct TrialDigest {
    std::uint64_t stream = 0;
    std::uint64_t trace = 0;
    std::uint64_t events = 0;
    std::uint64_t transmissions = 0;
    double now_sec = 0.0;
    std::uint64_t state = 0;
    /// now(), events_processed() and node state after every run_until
    /// call before the last, folded; unchanged by a one-call run.
    std::uint64_t stops = 1469598103934665603ULL;
};

template <typename View>
std::uint64_t nodes_hash(int n, const View& view) {
    std::uint64_t h = 1469598103934665603ULL;
    for (int i = 0; i < n; ++i) {
        h = node_state_hash(h, view(i));
    }
    return h;
}

/// Runs a simulation through spec.stops and then to the horizon, folding
/// its state after each stop into d.stops, with whatever digest `extra`
/// returns.
template <typename RunUntil, typename View, typename Extra>
void run_through_stops(const TrialSpec& spec, TrialDigest& d, RunUntil&& run_until,
                       const View& view, const Extra& extra) {
    for (const sim::SimTime stop : spec.stops) {
        const auto [now, events] = run_until(stop);
        d.stops = hash_bits(d.stops, now.sec());
        d.stops = fnv1a(d.stops, events);
        d.stops = fnv1a(d.stops, nodes_hash(spec.params.n, view));
        d.stops = fnv1a(d.stops, extra());
    }
    run_until(spec.horizon);
}

std::uint64_t no_extra() { return 0; }

TrialDigest run_engine(const TrialSpec& spec,
                       std::vector<StreamEvent>* log = nullptr) {
    StreamHash stream;
    stream.log = log;
    HashSink sink;
    obs::Tracer tracer{sink};
    sim::Engine engine;
    if (spec.trace) {
        engine.set_tracer(&tracer);
    }
    core::PeriodicMessagesModel model{engine, spec.params, make_policy(spec)};
    model.on_transmit = [&](int node, sim::SimTime t) { stream.transmit(node, t); };
    model.on_timer_set = [&](int node, sim::SimTime t) { stream.timer_set(node, t); };
    if (spec.trigger) {
        engine.schedule_at(spec.trig_at, [&] { model.trigger_update_all(); });
    }
    int hooks_left = spec.hooks;
    std::function<void()> hook = [&] {
        stream.hook(engine.now());
        if (--hooks_left > 0) {
            engine.schedule_at(engine.now() + spec.hook_every, hook);
        }
    };
    if (spec.hooks > 0) {
        engine.schedule_at(spec.hook_every, hook);
    }
    TrialDigest d;
    const auto view = [&model](int i) { return model.node(i); };
    run_through_stops(
        spec, d,
        [&engine](sim::SimTime t) {
            engine.run_until(t);
            return std::pair{engine.now(), engine.events_processed()};
        },
        view, no_extra);

    d.stream = stream.h;
    d.trace = sink.h;
    d.events = engine.events_processed();
    d.transmissions = model.total_transmissions();
    d.now_sec = engine.now().sec();
    d.state = nodes_hash(spec.params.n, view);
    return d;
}

TrialDigest run_kernel(const TrialSpec& spec) {
    StreamHash stream;
    HashSink sink;
    obs::Tracer tracer{sink};
    core::PmKernel kernel{spec.params, make_policy(spec),
                          spec.trace ? &tracer : nullptr};
    kernel.on_transmit = [&](int node, sim::SimTime t) { stream.transmit(node, t); };
    kernel.on_timer_set = [&](int node, sim::SimTime t) { stream.timer_set(node, t); };
    if (spec.trigger) {
        kernel.schedule_trigger_all(spec.trig_at);
    }
    int hooks_left = spec.hooks;
    std::function<void()> hook = [&] {
        stream.hook(kernel.now());
        if (--hooks_left > 0) {
            kernel.schedule_hook(kernel.now() + spec.hook_every, hook);
        }
    };
    if (spec.hooks > 0) {
        kernel.schedule_hook(spec.hook_every, hook);
    }
    TrialDigest d;
    const auto view = [&kernel](int i) { return kernel.node(i); };
    run_through_stops(
        spec, d,
        [&kernel](sim::SimTime t) {
            kernel.run_until(t);
            return std::pair{kernel.now(), kernel.events_processed()};
        },
        view, no_extra);

    d.stream = stream.h;
    d.trace = sink.h;
    d.events = kernel.events_processed();
    d.transmissions = kernel.total_transmissions();
    d.now_sec = kernel.now().sec();
    d.state = nodes_hash(spec.params.n, view);
    return d;
}

/// The paper's default model: a shared busy period, the re-arm after it
/// and UniformJitter with no per-node Tp. A kernel of it with nothing
/// watching single events runs the plain loop.
bool default_model(const TrialSpec& spec) {
    const core::ModelParams& p = spec.params;
    return spec.policy_kind == 0 && !p.reset_at_expiry &&
           p.notification == core::Notification::Immediate && p.per_node_tp.empty() &&
           p.per_node_tc.empty();
}

std::uint64_t optional_time_hash(std::uint64_t h, std::optional<sim::SimTime> t) {
    return t.has_value() ? hash_bits(fnv1a(h, 1), t->sec()) : fnv1a(h, 0);
}

/// Everything a ClusterTracker has learned: the closed rounds, both
/// first-hit tables and the full-sync time.
std::uint64_t tracker_hash(const core::ClusterTracker& tracker) {
    std::uint64_t h = fnv1a(1469598103934665603ULL, tracker.rounds_closed());
    for (const core::RoundLargest& r : tracker.rounds()) {
        h = fnv1a(h, r.round);
        h = fnv1a(h, static_cast<std::uint64_t>(r.largest));
        h = hash_bits(h, r.end_time.sec());
    }
    for (int s = 1; s <= tracker.n(); ++s) {
        h = optional_time_hash(h, tracker.first_time_size_at_least(s));
        h = optional_time_hash(h, tracker.first_round_largest_at_most(s));
    }
    return optional_time_hash(h, tracker.full_sync_time());
}

/// A trial's tracked twin: the same params, trigger wave and run_until
/// stops with no callback, tracer or hook, only a ClusterTracker fed by
/// the re-arms. On the kernel that is a plain run. With `stop_on_sync`
/// the tracker stops the run at full synchronization. d.stream holds the
/// finished tracker's digest; d.stops folds the live one at each stop.
TrialDigest run_tracked_engine(const TrialSpec& spec, bool stop_on_sync) {
    sim::Engine engine;
    core::PeriodicMessagesModel model{engine, spec.params};
    core::ClusterTracker tracker{spec.params.n, model.round_length()};
    model.on_timer_set = [&](int node, sim::SimTime t) { tracker.on_timer_set(node, t); };
    if (stop_on_sync) {
        tracker.on_full_sync = [&](sim::SimTime) { engine.stop(); };
    }
    if (spec.trigger) {
        engine.schedule_at(spec.trig_at, [&] { model.trigger_update_all(); });
    }
    TrialDigest d;
    const auto view = [&model](int i) { return model.node(i); };
    run_through_stops(
        spec, d,
        [&engine](sim::SimTime t) {
            engine.run_until(t);
            return std::pair{engine.now(), engine.events_processed()};
        },
        view, [&tracker] { return tracker_hash(tracker); });
    tracker.finish();
    d.stream = tracker_hash(tracker);
    d.events = engine.events_processed();
    d.transmissions = model.total_transmissions();
    d.now_sec = engine.now().sec();
    d.state = nodes_hash(spec.params.n, view);
    return d;
}

TrialDigest run_tracked_kernel(const TrialSpec& spec, bool stop_on_sync) {
    core::PmKernel kernel{spec.params};
    core::ClusterTracker tracker{spec.params.n, kernel.round_length()};
    kernel.set_tracker_sink(&tracker);
    if (stop_on_sync) {
        tracker.on_full_sync = [&](sim::SimTime) { kernel.stop(); };
    }
    if (spec.trigger) {
        kernel.schedule_trigger_all(spec.trig_at);
    }
    EXPECT_TRUE(kernel.plain_run()) << "the tracked twin must run the plain loop";
    TrialDigest d;
    const auto view = [&kernel](int i) { return kernel.node(i); };
    run_through_stops(
        spec, d,
        [&kernel](sim::SimTime t) {
            kernel.run_until(t);
            return std::pair{kernel.now(), kernel.events_processed()};
        },
        view, [&tracker] { return tracker_hash(tracker); });
    tracker.finish();
    d.stream = tracker_hash(tracker);
    d.events = kernel.events_processed();
    d.transmissions = kernel.total_transmissions();
    d.now_sec = kernel.now().sec();
    d.state = nodes_hash(spec.params.n, view);
    return d;
}

/// The end of the run only: a run split over several run_until calls must
/// end exactly where one call does.
void expect_same_end(const TrialDigest& got, const TrialDigest& want,
                     const std::string& where) {
    ASSERT_EQ(got.stream, want.stream) << "callback stream diverged at " << where;
    ASSERT_EQ(got.trace, want.trace) << "trace stream diverged at " << where;
    ASSERT_EQ(got.events, want.events) << "event count diverged at " << where;
    ASSERT_EQ(got.transmissions, want.transmissions) << where;
    ASSERT_EQ(got.now_sec, want.now_sec) << where;
    ASSERT_EQ(got.state, want.state) << "final node state diverged at " << where;
}

void expect_same_digest(const TrialDigest& got, const TrialDigest& want,
                        const std::string& where) {
    ASSERT_NO_FATAL_FAILURE(expect_same_end(got, want, where));
    ASSERT_EQ(got.stops, want.stops)
        << "clock, event count or node state diverged at a run_until stop at "
        << where;
}

/// Tracked twins (run_tracked_*) agree after each stop and at the end.
void expect_same_tracked(const TrialDigest& got, const TrialDigest& want,
                         const std::string& where) {
    ASSERT_EQ(got.stream, want.stream) << "tracker series diverged at " << where;
    ASSERT_EQ(got.events, want.events) << "event count diverged at " << where;
    ASSERT_EQ(got.transmissions, want.transmissions) << where;
    ASSERT_EQ(got.now_sec, want.now_sec) << where;
    ASSERT_EQ(got.state, want.state) << "final node state diverged at " << where;
    ASSERT_EQ(got.stops, want.stops)
        << "clock, event count, node state or tracker diverged at a run_until "
           "stop at "
        << where;
}

/// Runs the tracked twins of `spec` and compares them; returns true when
/// the tracker stopped the engine's run before the horizon.
bool expect_tracked_twins_agree(const TrialSpec& spec, bool stop_on_sync,
                                const std::string& where) {
    const TrialDigest want = run_tracked_engine(spec, stop_on_sync);
    const std::string tag = where + (stop_on_sync ? " tracked, stop on sync" : " tracked");
    EXPECT_NO_FATAL_FAILURE(
        expect_same_tracked(run_tracked_kernel(spec, stop_on_sync), want, tag));
    return want.now_sec < spec.horizon.sec();
}

/// Up to six run_until targets inside a run whose callbacks are `log`:
/// some exactly on a re-arm (a busy check's time), and some strictly
/// between a node's fire and its next re-arm, where the check is still
/// ahead of the target.
std::vector<sim::SimTime> split_targets(const std::vector<StreamEvent>& log, int n,
                                        std::mt19937_64& rng) {
    std::vector<sim::SimTime> on_check;
    std::vector<sim::SimTime> before_check;
    std::vector<sim::SimTime> fired(static_cast<std::size_t>(n),
                                    -sim::SimTime::seconds(1.0));
    for (const StreamEvent& e : log) {
        sim::SimTime& f = fired[static_cast<std::size_t>(e.node)];
        if (e.transmit) {
            f = e.t;
            continue;
        }
        on_check.push_back(e.t);
        const sim::SimTime mid = sim::SimTime::seconds(f.sec() + 0.5 * (e.t - f).sec());
        if (f >= sim::SimTime::zero() && f < mid && mid < e.t) {
            before_check.push_back(mid);
        }
    }
    std::vector<sim::SimTime> stops;
    for (const auto* pool : {&on_check, &before_check}) {
        for (int k = 0; k < 3 && !pool->empty(); ++k) {
            stops.push_back((*pool)[rng() % pool->size()]);
        }
    }
    std::sort(stops.begin(), stops.end());
    stops.erase(std::unique(stops.begin(), stops.end()), stops.end());
    return stops;
}

TEST(PmKernelDifferential, MatchesEngineOnRandomizedParameterSweep) {
    // Each point runs once in one run_until call, and again split over
    // several: on re-arm times and between fires and their checks. Split
    // or not, the kernel must match the engine at every stop, and the
    // split run must end exactly where the one-call run does.
    //
    // run_kernel attaches both callbacks, so it runs the general loop. A
    // default-model point also runs its tracked twins, whose kernel runs
    // the plain loop, one call and split; on every other such point the
    // tracker stops both runs at full synchronization.
    std::mt19937_64 rng{0xf10d5ULL};
    std::mt19937_64 stop_rng{0x5709ULL};
    int split_points = 0;
    int plain_points = 0;
    int sync_stops = 0;
    for (int point = 0; point < 200; ++point) {
        TrialSpec spec = sample_trial(rng);
        const std::string where = "point " + std::to_string(point) + " (n=" +
                                  std::to_string(spec.params.n) + " seed=" +
                                  std::to_string(spec.params.seed) + ")";
        std::vector<StreamEvent> log;
        const TrialDigest one_call = run_engine(spec, &log);
        ASSERT_NO_FATAL_FAILURE(expect_same_digest(run_kernel(spec), one_call, where));
        const bool plain = default_model(spec);
        const bool stop_on_sync = plain_points % 2 == 1;
        if (plain) {
            ++plain_points;
            sync_stops += expect_tracked_twins_agree(spec, stop_on_sync, where) ? 1 : 0;
            ASSERT_FALSE(HasFatalFailure());
        }

        spec.stops = split_targets(log, spec.params.n, stop_rng);
        if (spec.stops.empty()) {
            continue;
        }
        ++split_points;
        const TrialDigest split = run_engine(spec);
        ASSERT_NO_FATAL_FAILURE(expect_same_end(split, one_call, where + " split"));
        ASSERT_NO_FATAL_FAILURE(
            expect_same_digest(run_kernel(spec), split, where + " split"));
        if (plain) {
            (void)expect_tracked_twins_agree(spec, stop_on_sync, where + " split");
            ASSERT_FALSE(HasFatalFailure());
        }
    }
    EXPECT_GT(split_points, 150);
    EXPECT_GT(plain_points, 50);
    EXPECT_GT(sync_stops, 5);
}

TEST(PmKernelDifferential, MatchesEngineAtLargeNSynchronizedRounds) {
    // Large-n configs where every router's timer lands in one calendar
    // day (the batched-expiry path end to end, not just the queue fuzz):
    // a synchronized start drops all n timers at t = 0, and at n ~ 1500
    // with the Figure 15 parameters an unsynchronized start collapses
    // into one busy chain within the first round. The case just below
    // the queue threshold runs the same shape on the sorted-run queue.
    // Each default-model spec at n >= kPmCalendarMinNodes also runs its
    // tracked twins (the plain loop on the calendar), without its hooks.
    struct Case {
        int n;
        bool synchronized;
    };
    const Case cases[] = {
        {1500, true}, {1500, false}, {core::kPmCalendarMinNodes - 1, true}};
    for (const Case& c : cases) {
        TrialSpec spec = metro_trial(c.n, 0x5c1eULL + static_cast<std::uint64_t>(c.n),
                                     c.synchronized);
        // Covers the initial collapse (n * Tc = 165 s busy chain at
        // n = 1500) plus the first fully synchronized re-arm round.
        spec.horizon = sim::SimTime::seconds(450.0);
        const std::string where = "n=" + std::to_string(c.n);
        const TrialDigest want = run_engine(spec);
        ASSERT_NO_FATAL_FAILURE(expect_same_digest(run_kernel(spec), want, where));
        EXPECT_GT(want.transmissions, 0U);
        if (c.n >= core::kPmCalendarMinNodes) {
            (void)expect_tracked_twins_agree(spec, false, where);
            ASSERT_FALSE(HasFatalFailure());
        }
    }

    // At the queue threshold itself: a synchronized start under a chain
    // of scheduled hooks, an unsynchronized start, and the per-node busy
    // variants (AfterPreparation notification; per-node Tc, whose busy
    // checks come due out of push order and leave the calendar's lane).
    const int big = core::kPmCalendarMinNodes;
    TrialSpec hooked = metro_trial(big, 0xca1, true);
    hooked.hooks = 4;
    hooked.hook_every = sim::SimTime::seconds(37.0);
    TrialSpec unsynced = metro_trial(big + 7, 0xca2, false);
    TrialSpec after = metro_trial(big, 0xca3, true);
    after.params.notification = core::Notification::AfterPreparation;
    after.horizon = sim::SimTime::seconds(250.0);
    TrialSpec per_node_tc = metro_trial(big, 0xca4, true);
    std::mt19937_64 tc_rng{0xca4};
    std::uniform_real_distribution<double> tc_scale{0.5, 1.5};
    per_node_tc.params.per_node_tc.resize(static_cast<std::size_t>(big));
    for (double& tc : per_node_tc.params.per_node_tc) {
        tc = per_node_tc.params.tc.sec() * tc_scale(tc_rng);
    }
    for (const TrialSpec& spec : {hooked, unsynced, after, per_node_tc}) {
        const std::string where = "n=" + std::to_string(spec.params.n) +
                                  " seed=" + std::to_string(spec.params.seed);
        ASSERT_NO_FATAL_FAILURE(
            expect_same_digest(run_kernel(spec), run_engine(spec), where));
        if (default_model(spec)) {
            // The synchronized start reaches full sync in its first round:
            // there the tracker stops both runs.
            const bool stop_on_sync = spec.params.seed == hooked.params.seed;
            EXPECT_EQ(expect_tracked_twins_agree(spec, stop_on_sync, where),
                      stop_on_sync)
                << where;
            ASSERT_FALSE(HasFatalFailure());
        }
    }
}

/// A random calendar-queue trial: n from the queue threshold up, Tc and
/// Tr over a wide range, either start (sometimes with phases on a Tc
/// grid, which ties timers to busy-check times), each model variant,
/// trigger waves, hook chains, tracing and run_until stops at random times.
TrialSpec sample_calendar_trial(std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u{0.0, 1.0};
    TrialSpec spec;
    core::ModelParams& p = spec.params;
    p.n = core::kPmCalendarMinNodes + static_cast<int>(rng() % 400);
    p.tp = sim::SimTime::seconds(20.0 + 130.0 * u(rng));
    p.tc = sim::SimTime::seconds(0.01 + 0.2 * u(rng));
    p.tr = sim::SimTime::seconds(u(rng) < 0.2 ? 0.0 : 2.0 * u(rng));
    p.start = u(rng) < 0.5 ? core::StartCondition::Synchronized
                           : core::StartCondition::Unsynchronized;
    p.seed = rng();
    const double variant = u(rng);
    if (variant < 0.12) {
        p.notification = core::Notification::AfterPreparation;
    } else if (variant < 0.24) {
        p.per_node_tc.resize(static_cast<std::size_t>(p.n));
        for (double& tc : p.per_node_tc) {
            tc = p.tc.sec() * (0.5 + u(rng));
        }
    } else if (variant < 0.32) {
        p.reset_at_expiry = true;
    }
    if (u(rng) < 0.2) {
        p.initial_phases.resize(static_cast<std::size_t>(p.n));
        for (double& ph : p.initial_phases) {
            ph = std::floor(u(rng) * 20.0) * p.tc.sec();
        }
    }
    spec.horizon = sim::SimTime::seconds(p.tp.sec() * (2.0 + 3.0 * u(rng)));
    spec.trigger = u(rng) < 0.3;
    spec.trig_at = sim::SimTime::seconds(spec.horizon.sec() * 0.5 * u(rng));
    spec.trace = u(rng) < 0.5;
    if (u(rng) < 0.5) {
        spec.hooks = 1 + static_cast<int>(rng() % 30);
        spec.hook_every = sim::SimTime::seconds(0.05 + 3.0 * u(rng));
    }
    for (int k = static_cast<int>(rng() % 4); k > 0; --k) {
        spec.stops.push_back(sim::SimTime::seconds(spec.horizon.sec() * 0.6 * u(rng)));
    }
    std::sort(spec.stops.begin(), spec.stops.end());
    spec.stops.erase(std::unique(spec.stops.begin(), spec.stops.end()), spec.stops.end());
    return spec;
}

TEST(PmKernelDifferential, MatchesEngineOnRandomizedCalendarPoints) {
    // The randomized sweep above stays on the sorted run (n <= 24). These
    // points run on the calendar, where a synchronized start's busy chain
    // takes the one-pass stale-check step, interrupted by hooks, waves,
    // timers on the Tc grid and run_until stops, and the per-node busy
    // variants must not take it. Default-model points also run their
    // tracked twins (the plain loop).
    std::mt19937_64 rng{0xca1e7ULL};
    int calendar_chains = 0;
    for (int point = 0; point < 80; ++point) {
        const TrialSpec spec = sample_calendar_trial(rng);
        const std::string where = "calendar point " + std::to_string(point) + " (n=" +
                                  std::to_string(spec.params.n) + ")";
        ASSERT_NO_FATAL_FAILURE(expect_same_digest(run_kernel(spec), run_engine(spec), where));
        if (default_model(spec)) {
            (void)expect_tracked_twins_agree(spec, point % 2 == 1, where);
            ASSERT_FALSE(HasFatalFailure());
        }
        calendar_chains +=
            spec.params.start == core::StartCondition::Synchronized && default_model(spec) ? 1 : 0;
    }
    EXPECT_GT(calendar_chains, 10);
}

void expect_same_experiment(const core::ExperimentResult& got,
                            const core::ExperimentResult& want,
                            const std::string& where) {
    ASSERT_EQ(got.rounds_closed, want.rounds_closed) << where;
    ASSERT_EQ(got.rounds_unsynchronized, want.rounds_unsynchronized) << where;
    ASSERT_EQ(got.total_transmissions, want.total_transmissions) << where;
    ASSERT_EQ(got.events_processed, want.events_processed) << where;
    ASSERT_EQ(got.end_time_sec, want.end_time_sec) << where;
    ASSERT_EQ(got.round_length_sec, want.round_length_sec) << where;
    ASSERT_EQ(got.full_sync_time_sec, want.full_sync_time_sec) << where;
    ASSERT_EQ(got.breakup_time_sec, want.breakup_time_sec) << where;

    ASSERT_EQ(got.rounds.size(), want.rounds.size()) << where;
    for (std::size_t r = 0; r < want.rounds.size(); ++r) {
        ASSERT_EQ(got.rounds[r].round, want.rounds[r].round) << where;
        ASSERT_EQ(got.rounds[r].largest, want.rounds[r].largest) << where;
        ASSERT_EQ(got.rounds[r].end_time.sec(), want.rounds[r].end_time.sec());
    }
    ASSERT_EQ(got.cluster_events.size(), want.cluster_events.size()) << where;
    for (std::size_t e = 0; e < want.cluster_events.size(); ++e) {
        ASSERT_EQ(got.cluster_events[e].time.sec(),
                  want.cluster_events[e].time.sec()) << where;
        ASSERT_EQ(got.cluster_events[e].size, want.cluster_events[e].size);
    }
    ASSERT_EQ(got.first_hit_up.size(), want.first_hit_up.size()) << where;
    for (std::size_t s = 0; s < want.first_hit_up.size(); ++s) {
        ASSERT_EQ(got.first_hit_up[s], want.first_hit_up[s]) << where;
        ASSERT_EQ(got.first_hit_down[s], want.first_hit_down[s]) << where;
    }
    ASSERT_EQ(got.transmits.size(), want.transmits.size()) << where;
    for (std::size_t t = 0; t < want.transmits.size(); ++t) {
        ASSERT_EQ(got.transmits[t].node, want.transmits[t].node) << where;
        ASSERT_EQ(got.transmits[t].time_sec, want.transmits[t].time_sec);
        ASSERT_EQ(got.transmits[t].offset_sec, want.transmits[t].offset_sec);
    }
    ASSERT_EQ(got.metrics, want.metrics) << where;
}

core::ExperimentConfig sample_experiment(std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u{0.0, 1.0};
    core::ExperimentConfig cfg;
    cfg.params = sample_params(rng);
    cfg.params.reset_at_expiry = false; // clusters need the coupling on
    cfg.max_time =
        sim::SimTime::seconds(cfg.params.tp.sec() * (4.0 + 8.0 * u(rng)));
    cfg.record_rounds = true;
    cfg.record_cluster_events = true;
    cfg.transmit_stride = 3;
    if (u(rng) < 0.3) {
        cfg.stop_on_full_sync = true;
    }
    if (u(rng) < 0.2) {
        cfg.stop_on_breakup_threshold = 1;
    }
    if (u(rng) < 0.2) {
        cfg.trigger_all_at = sim::SimTime::seconds(cfg.max_time.sec() * 0.5);
    }
    return cfg;
}

TEST(PmKernelDifferential, ExperimentBackendsAgreeOnClusterSeries) {
    // The same differential through run_experiment: the full
    // ClusterTracker series (per-round largest, first-hit tables, cluster
    // events) and the run summary must match field for field. Each point
    // runs again without transmit records: then nothing watches single
    // events, and a default-model point runs the kernel's plain loop, its
    // stop conditions included.
    std::mt19937_64 rng{0xc105e5ULL};
    int plain_points = 0;
    for (int point = 0; point < 24; ++point) {
        core::ExperimentConfig cfg = sample_experiment(rng);
        const std::string where = "point " + std::to_string(point);
        cfg.backend = core::ExperimentBackend::Engine;
        const core::ExperimentResult eng = core::run_experiment(cfg);
        cfg.backend = core::ExperimentBackend::FastKernel;
        const core::ExperimentResult ker = core::run_experiment(cfg);
        ASSERT_NO_FATAL_FAILURE(expect_same_experiment(ker, eng, where));

        cfg.transmit_stride = 0;
        if (point % 3 == 1) {
            cfg.stop_on_cluster_size = std::max(2, cfg.params.n / 2);
        }
        plain_points += core::PmKernel{cfg.params}.plain_run() ? 1 : 0;
        cfg.backend = core::ExperimentBackend::Engine;
        const core::ExperimentResult eng_unwatched = core::run_experiment(cfg);
        cfg.backend = core::ExperimentBackend::FastKernel;
        ASSERT_NO_FATAL_FAILURE(expect_same_experiment(
            core::run_experiment(cfg), eng_unwatched, where + " unwatched"));
    }
    EXPECT_GT(plain_points, 8);
}

TEST(PmKernelDifferential, RunExperimentBatchAgreesWithEngine) {
    // One level up: run_experiment_batch's kernel runs vs per-config
    // engine runs, comparing the ClusterTracker-derived series, the stop
    // conditions, and the metrics snapshot. A few configs ask for the
    // engine themselves; one metro-sized config rides on the calendar
    // queue.
    std::mt19937_64 rng{0xbead5ULL};
    std::vector<core::ExperimentConfig> configs;
    for (int point = 0; point < 36; ++point) {
        core::ExperimentConfig cfg = sample_experiment(rng);
        if (point % 9 == 4) {
            cfg.backend = core::ExperimentBackend::Engine;
        }
        configs.push_back(std::move(cfg));
    }
    configs[10].params = metro_trial(core::kPmCalendarMinNodes, 0xbe1, false).params;
    configs[10].max_time = sim::SimTime::seconds(500.0);

    const std::vector<core::ExperimentResult> batched =
        core::run_experiment_batch(configs);
    ASSERT_EQ(batched.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        core::ExperimentConfig engine_cfg = configs[i];
        engine_cfg.backend = core::ExperimentBackend::Engine;
        ASSERT_NO_FATAL_FAILURE(expect_same_experiment(
            batched[i], core::run_experiment(engine_cfg),
            "config " + std::to_string(i)));
    }
}

// ---------------------------------------------------------------------------
// Targeted behaviour.

TEST(PmKernel, SharedBusyFastVariantSelection) {
    core::ModelParams p;
    p.n = 4;
    EXPECT_TRUE(core::PmKernel{p}.shared_busy());

    core::ModelParams after = p;
    after.notification = core::Notification::AfterPreparation;
    EXPECT_FALSE(core::PmKernel{after}.shared_busy());

    core::ModelParams mixed = p;
    mixed.per_node_tc = {0.1, 0.2, 0.1, 0.1};
    EXPECT_FALSE(core::PmKernel{mixed}.shared_busy());
}

TEST(PmKernel, PlainRunFollowsTheModelAndItsWatchers) {
    // The default model with nothing watching single events runs the
    // plain loop; a model variant or any watcher picks the general one.
    core::ModelParams p;
    p.n = 4;
    EXPECT_TRUE(core::PmKernel{p}.plain_run());
    {
        core::ModelParams big = p;
        big.n = core::kPmCalendarMinNodes;
        EXPECT_TRUE(core::PmKernel{big}.plain_run());
    }
    for (const auto& vary : std::initializer_list<std::function<void(core::ModelParams&)>>{
             [](core::ModelParams& v) { v.reset_at_expiry = true; },
             [](core::ModelParams& v) {
                 v.notification = core::Notification::AfterPreparation;
             },
             [](core::ModelParams& v) { v.per_node_tc = {0.1, 0.2, 0.1, 0.1}; },
             [](core::ModelParams& v) { v.per_node_tp = {120.0, 121.0, 122.0, 121.0}; },
         }) {
        core::ModelParams variant = p;
        vary(variant);
        EXPECT_FALSE(core::PmKernel{variant}.plain_run());
    }
    EXPECT_FALSE((core::PmKernel{p, std::make_unique<core::HalfPeriodJitter>(p.tp)}
                      .plain_run()));

    HashSink sink;
    obs::Tracer tracer{sink};
    EXPECT_FALSE((core::PmKernel{p, nullptr, &tracer}.plain_run()));

    core::PmKernel kernel{p};
    core::ClusterTracker tracker{p.n, kernel.round_length()};
    kernel.on_transmit = [](int, sim::SimTime) {};
    EXPECT_FALSE(kernel.plain_run());
    kernel.on_transmit = nullptr;
    kernel.on_timer_set = [](int, sim::SimTime) {};
    EXPECT_FALSE(kernel.plain_run());
    kernel.set_tracker_sink(&tracker); // takes on_timer_set's place
    EXPECT_TRUE(kernel.plain_run());
    obs::SyncMonitor monitor{
        obs::SyncMonitorConfig{.n = p.n, .period_sec = kernel.round_length().sec()}};
    kernel.set_monitor_sink(&monitor);
    EXPECT_FALSE(kernel.plain_run());
    kernel.set_monitor_sink(nullptr);
    EXPECT_TRUE(kernel.plain_run());
    {
        obs::Profiler profiler;
        const obs::ScopedProfilerInstall install{profiler};
        EXPECT_FALSE(kernel.plain_run());
    }
    EXPECT_TRUE(kernel.plain_run());
    kernel.schedule_hook(sim::SimTime::seconds(10.0), [] {});
    EXPECT_FALSE(kernel.plain_run());
    kernel.run_until(sim::SimTime::seconds(20.0)); // the hook ran
    EXPECT_TRUE(kernel.plain_run());
}

TEST(PmKernel, QueueFollowsRouterCount) {
    core::ModelParams small;
    small.n = core::kPmCalendarMinNodes - 1;
    core::ModelParams big = small;
    big.n = core::kPmCalendarMinNodes;
    EXPECT_FALSE(core::PmKernel{small}.calendar_queue());
    EXPECT_TRUE(core::PmKernel{big}.calendar_queue());
}

TEST(PmKernel, DefaultModelNodeStateIs24BytesPerRouter) {
    // next_expiry (8) + transmissions (8) + timer_gen (4) +
    // pending_state (4), on both queues; the variants that need more
    // state say so.
    for (const int n : {3, 18, core::kPmCalendarMinNodes}) {
        core::ModelParams p;
        p.n = n;
        p.seed = static_cast<std::uint64_t>(n);
        const core::PmKernel kernel{p};
        EXPECT_EQ(kernel.node_state_bytes(), 24U * static_cast<std::size_t>(n))
            << "n " << n;
        EXPECT_GT(kernel.state_bytes(), kernel.node_state_bytes());
    }
    core::ModelParams rfc;
    rfc.n = 5;
    rfc.reset_at_expiry = true; // no pending-own bookkeeping
    EXPECT_EQ(core::PmKernel{rfc}.node_state_bytes(), 20U * 5U);
    core::ModelParams after;
    after.n = 5;
    after.notification = core::Notification::AfterPreparation; // per-node busy
    EXPECT_EQ(core::PmKernel{after}.node_state_bytes(), 32U * 5U);
}

TEST(PmKernel, ProfilerScopesCountLikeTheEngine) {
    // A profiled run records pm.timer_fire and pm.begin_transmission once
    // per timer fire and per transmission (triggered ones included), on
    // the kernel exactly as on the engine.
    core::ExperimentConfig cfg;
    cfg.params.n = 12;
    cfg.params.seed = 77;
    cfg.max_time = sim::SimTime::seconds(3000);
    cfg.trigger_all_at = sim::SimTime::seconds(1000);
    obs::Profiler::set_process_enabled(true);
    cfg.backend = core::ExperimentBackend::Engine;
    const core::ExperimentResult eng = core::run_experiment(cfg);
    cfg.backend = core::ExperimentBackend::FastKernel;
    const core::ExperimentResult ker = core::run_experiment(cfg);
    obs::Profiler::set_process_enabled(false);
    for (const char* label :
         {"pm.timer_fire", "pm.begin_transmission", "experiment.run"}) {
        ASSERT_TRUE(ker.profile.entries.contains(label)) << label;
        EXPECT_EQ(ker.profile.entries.at(label).count,
                  eng.profile.entries.at(label).count) << label;
    }
    EXPECT_EQ(ker.profile.entries.at("pm.begin_transmission").count,
              ker.total_transmissions);
}

std::string invalid_argument_message(const std::function<void()>& make) {
    try {
        make();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return {};
}

std::vector<core::ModelParams> invalid_params() {
    core::ModelParams bad_n;
    bad_n.n = 0;
    core::ModelParams bad_phases;
    bad_phases.n = 3;
    bad_phases.initial_phases = {0.0, 1.0};
    return {bad_n, bad_phases};
}

std::string engine_model_message(const core::ModelParams& p) {
    return invalid_argument_message([&] {
        sim::Engine engine;
        core::PeriodicMessagesModel model{engine, p};
    });
}

TEST(PmKernel, ValidationMatchesEngineModel) {
    // The kernel must reject bad params with the model's exact messages —
    // callers switching backends must not see a different contract.
    for (const core::ModelParams& p : invalid_params()) {
        const std::string engine_msg = engine_model_message(p);
        const std::string kernel_msg =
            invalid_argument_message([&] { core::PmKernel kernel{p}; });
        EXPECT_FALSE(engine_msg.empty());
        EXPECT_EQ(kernel_msg, engine_msg);
    }
}

TEST(PmKernel, StopHaltsInsideRun) {
    core::ModelParams p;
    p.n = 5;
    p.seed = 9;
    core::PmKernel kernel{p};
    int fires = 0;
    kernel.on_transmit = [&](int, sim::SimTime) {
        if (++fires == 3) {
            kernel.stop();
        }
    };
    const sim::SimTime target = sim::SimTime::seconds(1e6);
    kernel.run_until(target);
    EXPECT_EQ(fires, 3);
    EXPECT_TRUE(kernel.stop_requested());
    EXPECT_LT(kernel.now().sec(), 1e6);
    kernel.clear_stop();
    kernel.run_until(target);
    EXPECT_GT(fires, 3);
    EXPECT_EQ(kernel.now().sec(), 1e6);
}

// ---------------------------------------------------------------------------
// The inline busy check: a timer fire's check skips the queue only when it
// is provably the next event, and every observable stays the engine's.

/// An engine model and a kernel of the same params, each with its own
/// callback digest and trace digest, compared after every step.
struct Twins {
    explicit Twins(const core::ModelParams& p)
        : params{p}, engine_tracer{engine_sink}, kernel_tracer{kernel_sink} {
        engine.set_tracer(&engine_tracer);
        model = std::make_unique<core::PeriodicMessagesModel>(engine, p);
        kernel = std::make_unique<core::PmKernel>(p, nullptr, &kernel_tracer);
        model->on_transmit = [this](int node, sim::SimTime t) {
            engine_stream.transmit(node, t);
        };
        model->on_timer_set = [this](int node, sim::SimTime t) {
            engine_stream.timer_set(node, t);
        };
        kernel->on_transmit = [this](int node, sim::SimTime t) {
            kernel_stream.transmit(node, t);
        };
        kernel->on_timer_set = [this](int node, sim::SimTime t) {
            kernel_stream.timer_set(node, t);
        };
    }
    Twins(const Twins&) = delete;
    Twins& operator=(const Twins&) = delete;

    void run_until(sim::SimTime t) {
        engine.run_until(t);
        kernel->run_until(t);
    }
    /// A hook at `t` on both, folding the clock, the event count and node
    /// 0's state into the callback digest when it runs. With `then` set,
    /// the hook schedules one more such hook `then` after itself.
    void schedule_probe(sim::SimTime t, sim::SimTime then = sim::SimTime::zero()) {
        engine.schedule_at(t, [this, then] {
            probe_engine();
            if (then > sim::SimTime::zero()) {
                engine.schedule_at(engine.now() + then, [this] { probe_engine(); });
            }
        });
        kernel->schedule_hook(t, [this, then] {
            probe_kernel();
            if (then > sim::SimTime::zero()) {
                kernel->schedule_hook(kernel->now() + then, [this] { probe_kernel(); });
            }
        });
    }
    void probe_engine() {
        engine_stream.hook(engine.now());
        engine_stream.h = fnv1a(engine_stream.h, engine.events_processed());
        engine_stream.h = node_state_hash(engine_stream.h, model->node(0));
    }
    void probe_kernel() {
        kernel_stream.hook(kernel->now());
        kernel_stream.h = fnv1a(kernel_stream.h, kernel->events_processed());
        kernel_stream.h = node_state_hash(kernel_stream.h, kernel->node(0));
    }

    void expect_agree(const std::string& where) const {
        ASSERT_EQ(kernel_stream.h, engine_stream.h) << "callback stream at " << where;
        ASSERT_EQ(kernel_sink.h, engine_sink.h) << "trace stream at " << where;
        ASSERT_EQ(kernel->events_processed(), engine.events_processed()) << where;
        ASSERT_EQ(kernel->now().sec(), engine.now().sec()) << where;
        ASSERT_EQ(nodes_hash(params.n, [this](int i) { return kernel->node(i); }),
                  nodes_hash(params.n, [this](int i) { return model->node(i); }))
            << "node state at " << where;
    }

    core::ModelParams params;
    StreamHash engine_stream;
    StreamHash kernel_stream;
    HashSink engine_sink;
    HashSink kernel_sink;
    obs::Tracer engine_tracer;
    obs::Tracer kernel_tracer;
    sim::Engine engine;
    std::unique_ptr<core::PeriodicMessagesModel> model;
    std::unique_ptr<core::PmKernel> kernel;
};

/// A router count on the calendar queue whose day width, 0.3 s at
/// Tc = 0.11 s, puts 10 s .. 10.22 s on one calendar day: the inline-check
/// cases below are then decided by the queue's answer, not by a day
/// boundary. The chain tests run their busy chain at the same size.
constexpr int kCalendarRouters = 300;
static_assert(kCalendarRouters >= core::kPmCalendarMinNodes);

/// n routers: node 0 fires at `first`, node 1 at `second`, the rest at
/// least a second later and spread over the period. Tc = 0.11 s.
core::ModelParams phased_params(int n, double first, double second) {
    core::ModelParams p;
    p.n = n;
    p.seed = 0x1c0de + static_cast<std::uint64_t>(n);
    p.initial_phases.resize(static_cast<std::size_t>(n));
    p.initial_phases[0] = first;
    if (n > 1) {
        p.initial_phases[1] = second;
    }
    for (int i = 2; i < n; ++i) {
        p.initial_phases[static_cast<std::size_t>(i)] = first + 1.0 + 0.37 * i;
    }
    return p;
}

TEST(PmKernelInlineCheck, TimerDueAtTheCheckTimeRunsFirst) {
    // Node 1's timer is queued for exactly node 0's check time, t + Tc,
    // with an earlier push seq: the check must go through the queue and
    // run after that timer, as on the engine. On both queues; the first
    // day of the calendar holds t .. t + 2Tc.
    const double t = 10.0;
    const sim::SimTime check = sim::SimTime::seconds(t) + sim::SimTime::seconds(0.11);
    for (const int n : {2, kCalendarRouters}) {
        const std::string where = "n=" + std::to_string(n);
        Twins twins{phased_params(n, t, check.sec())};
        twins.run_until(check);
        ASSERT_NO_FATAL_FAILURE(twins.expect_agree(where + " at t + Tc"));
        // Checks: node 0's, queued at t and re-queued when node 1 fires,
        // and node 1's; both re-arm at t + 2Tc.
        EXPECT_EQ(twins.kernel->queue_pushes(), static_cast<std::uint64_t>(n) + 3)
            << where;
        twins.run_until(sim::SimTime::seconds(400.0));
        ASSERT_NO_FATAL_FAILURE(twins.expect_agree(where + " at 400 s"));

        // Control: with node 1 a second later, node 0's check runs inline
        // (its re-arm is the only push), so the case above is decided by
        // the queue's answer, not by a day boundary.
        Twins control{phased_params(n, t, t + 1.0)};
        control.run_until(check);
        ASSERT_NO_FATAL_FAILURE(control.expect_agree(where + " control"));
        EXPECT_EQ(control.kernel->queue_pushes(), static_cast<std::uint64_t>(n) + 1)
            << where;
    }
}

TEST(PmKernelInlineCheck, HookDueAtTheCheckTimeRunsFirst) {
    // A hook queued for exactly t + Tc runs before the check it ties with:
    // it must see node 0 unarmed and the engine's event count.
    const double t = 10.0;
    const sim::SimTime check = sim::SimTime::seconds(t) + sim::SimTime::seconds(0.11);
    for (const int n : {2, kCalendarRouters}) {
        const std::string where = "n=" + std::to_string(n);
        Twins twins{phased_params(n, t, t + 1.0)};
        twins.schedule_probe(check);
        twins.run_until(check);
        ASSERT_NO_FATAL_FAILURE(twins.expect_agree(where + " at t + Tc"));
        EXPECT_EQ(twins.kernel->queue_pushes(), static_cast<std::uint64_t>(n) + 3)
            << where; // the hook, the queued check, node 0's re-arm
        twins.run_until(sim::SimTime::seconds(400.0));
        ASSERT_NO_FATAL_FAILURE(twins.expect_agree(where + " at 400 s"));
    }
}

TEST(PmKernelInlineCheck, StopFromOnTransmitLeavesTheCheckQueued) {
    // stop() inside the third fire: the engine stops with that fire's
    // check still queued, so the kernel may not run it inline. Resuming
    // after clear_stop() must continue exactly like the engine.
    core::ModelParams p;
    p.n = 5;
    p.seed = 9;
    p.initial_phases = {1.0, 20.0, 40.0, 60.0, 80.0};
    Twins twins{p};
    int engine_fires = 0;
    int kernel_fires = 0;
    twins.model->on_transmit = [&](int node, sim::SimTime t) {
        twins.engine_stream.transmit(node, t);
        if (++engine_fires == 3) {
            twins.engine.stop();
        }
    };
    twins.kernel->on_transmit = [&](int node, sim::SimTime t) {
        twins.kernel_stream.transmit(node, t);
        if (++kernel_fires == 3) {
            twins.kernel->stop();
        }
    };
    const sim::SimTime target = sim::SimTime::seconds(1e4);
    twins.run_until(target);
    ASSERT_NO_FATAL_FAILURE(twins.expect_agree("at the stop"));
    EXPECT_TRUE(twins.kernel->stop_requested());
    EXPECT_EQ(twins.kernel->now().sec(), 40.0);
    EXPECT_EQ(twins.kernel->queue_size(), twins.engine.pending_events());

    twins.engine.clear_stop();
    twins.kernel->clear_stop();
    twins.run_until(target);
    ASSERT_NO_FATAL_FAILURE(twins.expect_agree("after clear_stop"));
    EXPECT_EQ(twins.kernel->now(), target);
    EXPECT_GT(kernel_fires, 3);
}

TEST(PmKernelInlineCheck, FullSyncStopDuringAnInlineRearm) {
    // Tc = 0.1 us and fires 0.4 us apart: each fire's check runs inline
    // and each re-arm lands within the tracker's 1 us tolerance of the
    // last, so the third inline re-arm completes a cluster of all three
    // and on_full_sync stops the run inside it.
    core::ModelParams p;
    p.n = 3;
    p.tc = sim::SimTime::seconds(1e-7);
    p.initial_phases = {5.0, 5.0000004, 5.0000008};
    sim::Engine engine;
    core::PeriodicMessagesModel model{engine, p};
    core::ClusterTracker engine_tracker{p.n, model.round_length()};
    model.on_timer_set = [&](int node, sim::SimTime t) {
        engine_tracker.on_timer_set(node, t);
    };
    engine_tracker.on_full_sync = [&](sim::SimTime) { engine.stop(); };
    core::PmKernel kernel{p};
    core::ClusterTracker kernel_tracker{p.n, kernel.round_length()};
    kernel.set_tracker_sink(&kernel_tracker);
    kernel_tracker.on_full_sync = [&](sim::SimTime) { kernel.stop(); };

    const sim::SimTime target = sim::SimTime::seconds(1e3);
    engine.run_until(target);
    kernel.run_until(target);
    EXPECT_TRUE(kernel.stop_requested());
    EXPECT_EQ(kernel.now().sec(), engine.now().sec());
    EXPECT_EQ(kernel.now().sec(), (sim::SimTime::seconds(5.0000008) + p.tc).sec());
    EXPECT_EQ(kernel.events_processed(), engine.events_processed());
    EXPECT_EQ(kernel.events_processed(), 6U);
    EXPECT_EQ(kernel.queue_pushes(), 6U); // three arms, three re-arms: no check
    ASSERT_TRUE(kernel_tracker.full_sync_time().has_value());
    EXPECT_EQ(kernel_tracker.full_sync_time(), engine_tracker.full_sync_time());
}

TEST(PmKernelInlineCheck, Fig13PointPushCountIsPinned) {
    // N = 20, Tc = 0.11 s, Tr = Tc, 10^5 s: a Figure 13 grid point in the
    // unsynchronized regime. The event count is the engine's; the push
    // count pins how many busy checks ran inline (events - pushes +
    // queued, as no timer is ever cancelled here).
    core::ModelParams p;
    p.n = 20;
    p.tr = sim::SimTime::seconds(0.11);
    p.seed = 1;
    core::PmKernel kernel{p};
    kernel.run_until(sim::SimTime::seconds(1e5));
    sim::Engine engine;
    core::PeriodicMessagesModel model{engine, p};
    engine.run_until(sim::SimTime::seconds(1e5));
    EXPECT_EQ(kernel.events_processed(), engine.events_processed());
    EXPECT_EQ(kernel.events_processed(), 33590U);
    EXPECT_EQ(kernel.total_transmissions(), 16513U);
    // 15 422 busy checks (93 % of the transmissions) ran inline: events
    // + queued - pushes. The 20 queued events are the next timers.
    EXPECT_EQ(kernel.queue_pushes(), 18188U);
    EXPECT_EQ(kernel.queue_size(), 20U);

    // The same counts through run_experiment, which carries the push
    // count of whichever core ran. The engine queues every busy check:
    // its pushes are its events plus the 20 queued timers.
    core::ExperimentConfig cfg;
    cfg.params = p;
    cfg.max_time = sim::SimTime::seconds(1e5);
    cfg.backend = core::ExperimentBackend::FastKernel;
    const core::ExperimentResult on_kernel = core::run_experiment(cfg);
    EXPECT_EQ(on_kernel.events_processed, 33590U);
    EXPECT_EQ(on_kernel.queue_pushes, 18188U);
    cfg.backend = core::ExperimentBackend::Engine;
    const core::ExperimentResult on_engine = core::run_experiment(cfg);
    EXPECT_EQ(on_engine.events_processed, 33590U);
    EXPECT_EQ(on_engine.queue_pushes, engine.queue_pushes());
    EXPECT_EQ(on_engine.queue_pushes, 33610U);
    // Not a metric: the metrics blocks stay identical across backends.
    EXPECT_EQ(on_kernel.metrics.to_json(), on_engine.metrics.to_json());
}

// ---------------------------------------------------------------------------
// The one-pass stale checks: on the calendar, in the shared-busy model, a
// stale busy check moves every following check the queue would serve next
// before the shared busy end, and stops at each bound the engine's one-by-
// one re-pushes would reveal: the run target, a hook, a trigger wave and a
// timer, each inside the chain.

/// The Figure 15 shape from a synchronized start at kCalendarRouters
/// routers: every timer fires at t = 0, so the first busy chain queues the
/// k-th fire's check at chain_check_time(k) and ends at n * Tc (33 s). All
/// but the last check are stale when they come due.
core::ModelParams chain_params() {
    core::ModelParams p;
    p.n = kCalendarRouters;
    p.tc = sim::SimTime::seconds(0.11);
    p.tr = sim::SimTime::seconds(0.3);
    p.start = core::StartCondition::Synchronized;
    p.seed = 0x57a1e + static_cast<std::uint64_t>(kCalendarRouters);
    return p;
}

/// The shared busy end after k transmissions at t = 0, as the kernel and
/// the engine accumulate it: the k-th fire's check time.
sim::SimTime chain_check_time(const core::ModelParams& p, int k) {
    sim::SimTime be = sim::SimTime::zero() + p.tc;
    for (int i = 1; i < k; ++i) {
        be += p.tc;
    }
    return be;
}

/// Past the first chain and the first re-armed round.
constexpr sim::SimTime kAfterChain = sim::SimTime::seconds(400.0);

TEST(PmKernelStaleChecks, RunUntilInsideTheChainEndsLikeOneCall) {
    // Targets inside the first chain: between two checks, exactly on one
    // (a check at the target still runs) and just before the chain's last
    // check. The kernel agrees with the engine at every stop and ends
    // where one call ends.
    const core::ModelParams p = chain_params();
    Twins one_call{p};
    one_call.run_until(kAfterChain);
    ASSERT_NO_FATAL_FAILURE(one_call.expect_agree("one call"));

    const std::vector<sim::SimTime> stops = {
        sim::SimTime::seconds(5.0), chain_check_time(p, 100),
        chain_check_time(p, p.n) - sim::SimTime::seconds(0.05)};
    Twins split{p};
    for (const sim::SimTime stop : stops) {
        split.run_until(stop);
        ASSERT_NO_FATAL_FAILURE(split.expect_agree("stop at " + std::to_string(stop.sec())));
        EXPECT_EQ(split.kernel->now(), stop);
    }
    split.run_until(kAfterChain);
    ASSERT_NO_FATAL_FAILURE(split.expect_agree("split, at the end"));
    EXPECT_EQ(split.kernel->events_processed(), one_call.kernel->events_processed());
    EXPECT_EQ(split.kernel_stream.h, one_call.kernel_stream.h);
    EXPECT_EQ(split.kernel_sink.h, one_call.kernel_sink.h);
    // The first two stops leave stale checks queued, and the first of
    // them re-queues itself when the run resumes: one push each. The last
    // leaves only the chain's last check, which is not stale.
    EXPECT_EQ(split.kernel->queue_pushes(), one_call.kernel->queue_pushes() + 2);

    // The same stops on the plain loop (tracked twins).
    TrialSpec spec = metro_trial(p.n, p.seed, true);
    spec.horizon = kAfterChain;
    spec.stops = stops;
    (void)expect_tracked_twins_agree(spec, false, "tracked, split in the chain");
}

TEST(PmKernelStaleChecks, HookInsideTheChainStopsIt) {
    // Hooks (the resource sampler's mechanism) at 10 s, exactly on the
    // 50th check, which they precede by push order, and at 20 s and
    // 20.19 s, one calendar day (0.3 s wide here). The one at 20 s
    // schedules one more at 20.1 s while that day is being served, so the
    // new hook waits in the spill, not in a bucket. Each hook sees the
    // engine's event count and node state, so the pass stopped in front
    // of it.
    const core::ModelParams p = chain_params();
    Twins unhooked{p};
    unhooked.run_until(kAfterChain);
    Twins twins{p};
    twins.schedule_probe(sim::SimTime::seconds(10.0));
    twins.schedule_probe(chain_check_time(p, 50));
    twins.schedule_probe(sim::SimTime::seconds(20.0), sim::SimTime::seconds(0.1));
    twins.schedule_probe(sim::SimTime::seconds(20.19));
    twins.run_until(kAfterChain);
    ASSERT_NO_FATAL_FAILURE(twins.expect_agree("hooked"));
    EXPECT_EQ(twins.kernel->events_processed(), unhooked.kernel->events_processed() + 5);
    // Beyond the five hooks' own pushes: after a hook, the next stale
    // check re-queues itself before the pass resumes.
    EXPECT_GT(twins.kernel->queue_pushes(), unhooked.kernel->queue_pushes() + 5);
}

TEST(PmKernelStaleChecks, TriggerWaveInsideTheChainStopsIt) {
    // A trigger_all_at wave at 10 s: n more transmissions extend the
    // shared busy period, so the checks after the wave re-queue at its new
    // end, as on the engine. Compared at the wave and after.
    const core::ModelParams p = chain_params();
    Twins twins{p};
    const sim::SimTime wave = sim::SimTime::seconds(10.0);
    twins.engine.schedule_at(wave, [&twins] { twins.model->trigger_update_all(); });
    twins.kernel->schedule_trigger_all(wave);
    twins.run_until(wave);
    ASSERT_NO_FATAL_FAILURE(twins.expect_agree("at the wave"));
    EXPECT_EQ(twins.kernel->total_transmissions(), static_cast<std::uint64_t>(2 * p.n));
    twins.run_until(kAfterChain);
    ASSERT_NO_FATAL_FAILURE(twins.expect_agree("after the wave"));
}

TEST(PmKernelStaleChecks, TimerAtAStaleCheckTimeStopsIt) {
    // n - 1 routers fire at t = 0; the last one's timer is due exactly at
    // the 40th check's time, with an earlier push seq, so it fires first
    // and extends the busy period before that check runs. A pass that
    // moved the check past the tie would cost the engine's count one event.
    core::ModelParams p = chain_params();
    p.initial_phases.assign(static_cast<std::size_t>(p.n), 0.0);
    p.initial_phases.back() = chain_check_time(p, 40).sec();
    Twins twins{p};
    twins.run_until(chain_check_time(p, 40));
    ASSERT_NO_FATAL_FAILURE(twins.expect_agree("at the tie"));
    twins.run_until(kAfterChain);
    ASSERT_NO_FATAL_FAILURE(twins.expect_agree("after the tie"));
}

TEST(PmKernelStaleChecks, StaysOffForPerNodeBusyPeriods) {
    // Up to 100 s the first chain has run and no re-armed timer has fired,
    // so no check ran inline: a kernel without the pass pushes exactly
    // what the engine schedules. Per-node Tc and AfterPreparation keep
    // per-node busy ends and the queue; the default model moves the 298
    // checks between the first stale one and the chain's last.
    const sim::SimTime until = sim::SimTime::seconds(100.0);
    core::ModelParams per_node_tc = chain_params();
    std::mt19937_64 rng{0x7c};
    std::uniform_real_distribution<double> scale{0.5, 1.5};
    per_node_tc.per_node_tc.resize(static_cast<std::size_t>(per_node_tc.n));
    for (double& tc : per_node_tc.per_node_tc) {
        tc = per_node_tc.tc.sec() * scale(rng);
    }
    core::ModelParams after = chain_params();
    after.notification = core::Notification::AfterPreparation;
    for (const core::ModelParams& p : {per_node_tc, after}) {
        const std::string where = p.per_node_tc.empty() ? "AfterPreparation" : "per-node Tc";
        Twins twins{p};
        twins.run_until(until);
        ASSERT_NO_FATAL_FAILURE(twins.expect_agree(where));
        EXPECT_FALSE(twins.kernel->shared_busy()) << where;
        EXPECT_EQ(twins.kernel->queue_pushes(), twins.engine.queue_pushes()) << where;
        twins.run_until(kAfterChain);
        ASSERT_NO_FATAL_FAILURE(twins.expect_agree(where + " at 400 s"));
    }

    const core::ModelParams p = chain_params();
    Twins twins{p};
    twins.run_until(until);
    ASSERT_NO_FATAL_FAILURE(twins.expect_agree("default model"));
    EXPECT_EQ(twins.engine.queue_pushes() - twins.kernel->queue_pushes(),
              static_cast<std::uint64_t>(p.n - 2));
}

TEST(PmKernelStaleChecks, SynchronizedCalendarPointPushCountIsPinned) {
    // N = 300 at Figure 15's parameters from a synchronized start, 2·10^4
    // s: every round is one cluster. The event count is the engine's; the
    // push count pins the one-pass step.
    const core::ModelParams p = chain_params();
    const sim::SimTime until = sim::SimTime::seconds(2e4);
    core::PmKernel kernel{p};
    kernel.run_until(until);
    sim::Engine engine;
    core::PeriodicMessagesModel model{engine, p};
    engine.run_until(until);
    EXPECT_EQ(kernel.events_processed(), engine.events_processed());
    EXPECT_EQ(kernel.total_transmissions(), model.total_transmissions());
    EXPECT_EQ(kernel.events_processed(), 117987U); // 3.0 per transmission
    EXPECT_EQ(kernel.total_transmissions(), 39300U);
    // 2.02 pushes per transmission: a member's re-armed timer and its
    // busy check, plus the few stale checks re-queued one at a time while
    // the cluster's fires still interleave with them. No check ran inline
    // here, so with every stale check re-queued one at a time, as the
    // engine does, the run made 118 287 pushes (3.01 per transmission):
    // its events plus the 300 timers still queued.
    EXPECT_EQ(kernel.queue_pushes(), 79381U);
    EXPECT_EQ(kernel.queue_size(), 300U);
    EXPECT_EQ(engine.queue_pushes(), 118287U);

    core::ExperimentConfig cfg;
    cfg.params = p;
    cfg.max_time = until;
    cfg.backend = core::ExperimentBackend::FastKernel;
    const core::ExperimentResult on_kernel = core::run_experiment(cfg);
    EXPECT_EQ(on_kernel.events_processed, kernel.events_processed());
    EXPECT_EQ(on_kernel.queue_pushes, kernel.queue_pushes());
    cfg.backend = core::ExperimentBackend::Engine;
    const core::ExperimentResult on_engine = core::run_experiment(cfg);
    EXPECT_EQ(on_engine.events_processed, kernel.events_processed());
    EXPECT_EQ(on_engine.queue_pushes, engine.queue_pushes());
    EXPECT_EQ(on_kernel.metrics.to_json(), on_engine.metrics.to_json());
}

} // namespace
