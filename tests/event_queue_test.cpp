// Tests for the cancellable event queue.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace routesync::sim {

struct EventQueueTestPeer {
    static bool holds(const EventQueue& q) { return q.has_hold(); }
    /// Moves the sequence counter to `left` pushes short of renumbering.
    static void near_renumber(EventQueue& q, std::uint64_t left) {
        q.next_seq_ = EventQueue::kMaxSeq + 1 - left;
    }
};

} // namespace routesync::sim

namespace {

using routesync::sim::EventQueue;
using routesync::sim::EventQueueTestPeer;
using routesync::sim::SimTime;
using namespace routesync::sim::literals;

TEST(EventQueue, StartsEmpty) {
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0U);
}

TEST(EventQueue, PopsInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.push(3_sec, [&] { order.push_back(3); });
    q.push(1_sec, [&] { order.push_back(1); });
    q.push(2_sec, [&] { order.push_back(2); });
    while (!q.empty()) {
        q.pop().callback();
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInPushOrder) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
        q.push(5_sec, [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) {
        q.pop().callback();
    }
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    }
}

TEST(EventQueue, NextTimeReportsEarliestLiveEvent) {
    EventQueue q;
    q.push(4_sec, [] {});
    const auto early = q.push(2_sec, [] {});
    EXPECT_EQ(q.next_time(), 2_sec);
    EXPECT_TRUE(q.cancel(early));
    EXPECT_EQ(q.next_time(), 4_sec);
}

TEST(EventQueue, CancelRemovesEvent) {
    EventQueue q;
    bool fired = false;
    const auto h = q.push(1_sec, [&] { fired = true; });
    EXPECT_TRUE(q.cancel(h));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
    EventQueue q;
    const auto h = q.push(1_sec, [] {});
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, CancelAfterFireFails) {
    EventQueue q;
    const auto h = q.push(1_sec, [] {});
    q.pop().callback();
    EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, CancelBogusHandleFails) {
    EventQueue q;
    EXPECT_FALSE(q.cancel({}));
    EXPECT_FALSE(q.cancel({.id = 9999}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
    EventQueue q;
    const auto a = q.push(1_sec, [] {});
    q.push(2_sec, [] {});
    EXPECT_EQ(q.size(), 2U);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1U);
    q.pop();
    EXPECT_EQ(q.size(), 0U);
}

TEST(EventQueue, PopSkipsCancelledHead) {
    EventQueue q;
    const auto a = q.push(1_sec, [] {});
    q.push(2_sec, [] {});
    q.cancel(a);
    EXPECT_EQ(q.pop().time, 2_sec);
}

TEST(EventQueue, EmptyCallbackThrows) {
    EventQueue q;
    EXPECT_THROW(q.push(1_sec, nullptr), std::invalid_argument);
}

TEST(EventQueue, ManyInterleavedOperationsStayConsistent) {
    EventQueue q;
    std::vector<routesync::sim::EventHandle> handles;
    for (int i = 0; i < 1000; ++i) {
        handles.push_back(
            q.push(SimTime::seconds(static_cast<double>(i % 37)), [] {}));
    }
    // Cancel every third.
    std::size_t cancelled = 0;
    for (std::size_t i = 0; i < handles.size(); i += 3) {
        ASSERT_TRUE(q.cancel(handles[i]));
        ++cancelled;
    }
    EXPECT_EQ(q.size(), 1000U - cancelled);
    SimTime last = SimTime::seconds(-1);
    std::size_t popped = 0;
    while (!q.empty()) {
        const auto p = q.pop();
        EXPECT_GE(p.time, last);
        last = p.time;
        ++popped;
    }
    EXPECT_EQ(popped, 1000U - cancelled);
}

// --- Slot/tombstone scheme properties -------------------------------------

TEST(EventQueue, EqualTimesStayFifoAcrossInterleavedCancels) {
    // All events share one timestamp; cancelling odd pushes must not
    // disturb the FIFO order of the survivors, even with pops interleaved
    // between pushes (which recycles slots mid-stream).
    EventQueue q;
    std::vector<int> order;
    std::vector<routesync::sim::EventHandle> handles;
    for (int i = 0; i < 50; ++i) {
        handles.push_back(q.push(7_sec, [&order, i] { order.push_back(i); }));
    }
    for (int i = 1; i < 50; i += 2) {
        ASSERT_TRUE(q.cancel(handles[static_cast<std::size_t>(i)]));
    }
    // Pop a few, push a few more at the same time; the new ones recycle
    // cancelled slots but must order AFTER every surviving older event.
    for (int i = 0; i < 5; ++i) {
        q.pop().callback();
    }
    for (int i = 100; i < 105; ++i) {
        q.push(7_sec, [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) {
        EXPECT_EQ(q.next_time(), 7_sec);
        q.pop().callback();
    }
    std::vector<int> expected;
    for (int i = 0; i < 50; i += 2) {
        expected.push_back(i);
    }
    for (int i = 100; i < 105; ++i) {
        expected.push_back(i);
    }
    EXPECT_EQ(order, expected);
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsRejected) {
    EventQueue q;
    const auto old = q.push(1_sec, [] {});
    q.pop(); // fires; the slot returns to the free list
    // The next push recycles the slot with a bumped generation.
    const auto fresh = q.push(2_sec, [] {});
    EXPECT_FALSE(q.cancel(old)) << "stale handle must not cancel the new event";
    EXPECT_EQ(q.size(), 1U);
    EXPECT_TRUE(q.cancel(fresh));
    EXPECT_FALSE(q.cancel(fresh)) << "double cancel";
}

TEST(EventQueue, CancelHeavyWorkloadCompactsTombstones) {
    // Push many, cancel nearly all without popping: the compaction policy
    // (tombstones > heap/2) must bound heap growth to O(live).
    EventQueue q;
    std::vector<routesync::sim::EventHandle> handles;
    const int kEvents = 4096;
    for (int i = 0; i < kEvents; ++i) {
        handles.push_back(
            q.push(SimTime::seconds(static_cast<double>(i)), [] {}));
    }
    for (int i = 0; i < kEvents; ++i) {
        if (i % 8 != 0) {
            ASSERT_TRUE(q.cancel(handles[static_cast<std::size_t>(i)]));
        }
    }
    const std::size_t live = static_cast<std::size_t>(kEvents) / 8;
    EXPECT_EQ(q.size(), live);
    // 7/8 cancelled; without compaction heap_entries() would still be
    // 4096. The policy guarantees tombstones <= half the heap.
    EXPECT_LE(q.heap_entries(), 2 * live + 1);
    // Everything still pops in order afterwards.
    SimTime last = SimTime::seconds(-1);
    std::size_t popped = 0;
    while (!q.empty()) {
        const auto p = q.pop();
        EXPECT_GT(p.time, last);
        last = p.time;
        ++popped;
    }
    EXPECT_EQ(popped, live);
}

TEST(EventQueue, RepeatedRescheduleDoesNotGrowMemory) {
    // The routing-timer pattern the compaction policy exists for: a
    // timer that is almost always cancelled and rescheduled before it
    // fires. Heap entries must stay bounded by a constant, not grow by
    // one per reschedule.
    EventQueue q;
    auto h = q.push(1_sec, [] {});
    for (int i = 2; i < 20000; ++i) {
        ASSERT_TRUE(q.cancel(h));
        h = q.push(SimTime::seconds(static_cast<double>(i)), [] {});
    }
    EXPECT_EQ(q.size(), 1U);
    EXPECT_LE(q.heap_entries(), 64U + 1U); // kCompactMinHeap bounds the slack
}

TEST(EventQueue, StressMatchesReferenceModel) {
    // Randomized interleaving of push/cancel/pop with heavy timestamp
    // collisions, checked against a straightforward reference (stable
    // sort by time == FIFO tie-break). Also exercises size()/empty()
    // invariants throughout.
    struct Ref {
        double time;
        int tag;
        bool cancelled = false;
    };
    EventQueue q;
    std::vector<Ref> ref;
    std::vector<std::pair<routesync::sim::EventHandle, std::size_t>> live_handles;
    std::vector<int> popped_tags;
    std::vector<int> expected_tags;
    std::uint64_t rng_state = 12345;
    const auto rnd = [&rng_state](std::uint64_t mod) {
        // xorshift64 — deterministic, no <random> dependency.
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        return rng_state % mod;
    };
    int next_tag = 0;
    std::size_t live = 0;
    for (int step = 0; step < 20000; ++step) {
        const auto op = rnd(10);
        if (op < 5) { // push (times drawn from 16 values: many ties)
            const double t = static_cast<double>(rnd(16));
            const int tag = next_tag++;
            live_handles.emplace_back(
                q.push(SimTime::seconds(t),
                       [&popped_tags, tag] { popped_tags.push_back(tag); }),
                ref.size());
            ref.push_back(Ref{t, tag});
            ++live;
        } else if (op < 7) { // cancel a random live handle
            if (!live_handles.empty()) {
                const auto pick = rnd(live_handles.size());
                const auto [h, ri] = live_handles[pick];
                ASSERT_TRUE(q.cancel(h));
                ref[ri].cancelled = true;
                live_handles.erase(live_handles.begin() +
                                   static_cast<std::ptrdiff_t>(pick));
                --live;
            }
        } else { // pop the earliest
            if (!q.empty()) {
                auto p = q.pop();
                p.callback(); // appends the popped event's real tag
                // Reference: earliest non-cancelled; ref is in push order,
                // so the first minimum is the FIFO winner among ties.
                std::size_t best = ref.size();
                for (std::size_t i = 0; i < ref.size(); ++i) {
                    if (!ref[i].cancelled &&
                        (best == ref.size() || ref[i].time < ref[best].time)) {
                        best = i;
                    }
                }
                ASSERT_NE(best, ref.size());
                EXPECT_EQ(p.time.sec(), ref[best].time);
                expected_tags.push_back(ref[best].tag);
                std::erase_if(live_handles,
                              [best](const auto& e) { return e.second == best; });
                ref[best].cancelled = true; // consumed
                --live;
            }
        }
        ASSERT_EQ(q.size(), live);
        ASSERT_EQ(q.empty(), live == 0);
    }
    EXPECT_EQ(popped_tags, expected_tags);
}

// ---- the hold slot --------------------------------------------------------

/// Pushes an event at `t` that logs `tag` when it runs.
routesync::sim::EventHandle push_tag(EventQueue& q, double t, std::vector<int>& log,
                                     int tag) {
    return q.push(SimTime::seconds(t), [&log, tag] { log.push_back(tag); });
}

/// Pops and runs everything; returns the tags in run order.
std::vector<int> drain(EventQueue& q, std::vector<int>& log) {
    while (!q.empty()) {
        auto p = q.pop();
        EXPECT_TRUE(static_cast<bool>(p.callback)) << "popped a cancelled event";
        if (p.callback) {
            p.callback();
        }
    }
    return log;
}

TEST(EventQueueHold, APushEarlierThanEverythingQueuedTakesTheHold) {
    EventQueue q;
    std::vector<int> log;
    push_tag(q, 5, log, 1); // empty queue: the hold
    EXPECT_TRUE(EventQueueTestPeer::holds(q));
    push_tag(q, 7, log, 2); // later: the heap
    push_tag(q, 3, log, 3); // earliest: displaces 5 into the heap
    push_tag(q, 6, log, 4);
    EXPECT_TRUE(EventQueueTestPeer::holds(q));
    EXPECT_EQ(q.size(), 4U);
    EXPECT_EQ(q.next_time(), 3_sec);
    EXPECT_EQ(q.next_time_bound(), 3_sec);
    EXPECT_EQ(drain(q, log), (std::vector<int>{3, 1, 4, 2}));
}

TEST(EventQueueHold, DisplacedEntriesAreKeptInOrder) {
    // Each push displaces the previous hold: none may be lost.
    EventQueue q;
    std::vector<int> log;
    for (int i = 0; i < 40; ++i) {
        push_tag(q, 100.0 - i, log, i);
    }
    EXPECT_EQ(q.size(), 40U);
    std::vector<int> expected;
    for (int i = 39; i >= 0; --i) {
        expected.push_back(i);
    }
    EXPECT_EQ(drain(q, log), expected);
}

TEST(EventQueueHold, AnEqualTimePushNeverOvertakesTheHeldEntry) {
    // A later push at the hold's time has a larger sequence number, so it
    // must not take the hold even once its chain has left the cache.
    EventQueue q;
    std::vector<int> log;
    push_tag(q, 2, log, 1); // the hold; opens the chain for t = 2
    push_tag(q, 5, log, 2); // two more times evict that chain
    push_tag(q, 6, log, 3);
    push_tag(q, 2, log, 4); // heap, behind the hold
    EXPECT_EQ(drain(q, log), (std::vector<int>{1, 4, 2, 3}));

    // The same with the hold empty: an equal-time push must not overtake
    // the heap root either.
    EventQueue r;
    std::vector<int> rlog;
    push_tag(r, 1, rlog, 1); // the hold
    push_tag(r, 2, rlog, 2); // heap; chain for 2
    push_tag(r, 3, rlog, 3);
    push_tag(r, 4, rlog, 4); // the chain for 2 is evicted
    auto first = r.pop();
    first.callback();
    EXPECT_FALSE(EventQueueTestPeer::holds(r));
    push_tag(r, 2, rlog, 5);
    EXPECT_EQ(drain(r, rlog), (std::vector<int>{1, 2, 5, 3, 4}));
}

TEST(EventQueueHold, CancellingTheHeldEntry) {
    EventQueue q;
    std::vector<int> log;
    push_tag(q, 5, log, 1);
    const auto held = push_tag(q, 1, log, 2);
    ASSERT_TRUE(EventQueueTestPeer::holds(q));
    EXPECT_TRUE(q.cancel(held));
    EXPECT_FALSE(q.cancel(held));
    EXPECT_EQ(q.size(), 1U);
    EXPECT_EQ(q.tombstones(), 1U);
    EXPECT_EQ(q.next_time_bound(), 1_sec); // the bound still sees it
    EXPECT_EQ(q.next_time(), 5_sec);       // next_time() reclaims it
    EXPECT_EQ(q.tombstones(), 0U);

    // A push earlier than a cancelled hold displaces the tombstone, which
    // is still reclaimed when it surfaces.
    const auto dead = push_tag(q, 2, log, 3);
    ASSERT_TRUE(EventQueueTestPeer::holds(q));
    EXPECT_TRUE(q.cancel(dead));
    push_tag(q, 0.5, log, 4);
    EXPECT_EQ(q.size(), 2U);
    EXPECT_EQ(drain(q, log), (std::vector<int>{4, 1}));
    EXPECT_EQ(q.tombstones(), 0U);

    // A cancelled hold with a chain: its successor takes the hold.
    EventQueue c;
    std::vector<int> clog;
    const auto head = push_tag(c, 1, clog, 1);
    push_tag(c, 1, clog, 2);
    push_tag(c, 3, clog, 3);
    EXPECT_TRUE(c.cancel(head));
    EXPECT_EQ(c.next_time(), 1_sec);
    EXPECT_EQ(drain(c, clog), (std::vector<int>{2, 3}));
}

TEST(EventQueueHold, AChainOpenedByTheHeldEntry) {
    EventQueue q;
    std::vector<int> log;
    push_tag(q, 1, log, 1); // the hold opens the chain for t = 1
    push_tag(q, 1, log, 2);
    push_tag(q, 1, log, 3);
    EXPECT_EQ(q.heap_entries(), 3U);
    push_tag(q, 0.5, log, 4); // displaces the chain head, chain and all
    push_tag(q, 1, log, 5);   // the chain is still open
    EXPECT_EQ(drain(q, log), (std::vector<int>{4, 1, 2, 3, 5}));

    // Popping a chained hold advances the hold in place; the successor
    // stays the minimum for later pushes.
    EventQueue r;
    std::vector<int> rlog;
    push_tag(r, 1, rlog, 1);
    push_tag(r, 1, rlog, 2);
    push_tag(r, 2, rlog, 3);
    auto first = r.pop();
    first.callback();
    EXPECT_TRUE(EventQueueTestPeer::holds(r));
    EXPECT_EQ(r.next_time_bound(), 1_sec);
    push_tag(r, 1.5, rlog, 4); // after the advanced hold: heap
    push_tag(r, 1, rlog, 5);   // joins the chain behind 2
    EXPECT_EQ(drain(r, rlog), (std::vector<int>{1, 2, 5, 4, 3}));
}

TEST(EventQueueHold, CompactionSeesTheHeldEntry) {
    // Cancel heap entries until a compaction runs, with the hold live or
    // itself cancelled. A live hold must stay first; a cancelled one must
    // be reclaimed with the other tombstones, never served.
    for (const bool cancel_hold : {false, true}) {
        EventQueue q;
        std::vector<int> log;
        std::vector<routesync::sim::EventHandle> handles;
        for (int i = 0; i < 100; ++i) {
            handles.push_back(push_tag(q, 10.0 + i, log, 10 + i));
        }
        const auto held = push_tag(q, 1, log, 1);
        ASSERT_TRUE(EventQueueTestPeer::holds(q));
        if (cancel_hold) {
            ASSERT_TRUE(q.cancel(held));
        }
        std::vector<int> expected{1};
        if (cancel_hold) {
            expected.clear();
        }
        std::size_t cancelled = 0;
        for (std::size_t i = 1; i < handles.size(); ++i) {
            const std::size_t before = q.heap_entries();
            ASSERT_TRUE(q.cancel(handles[i]));
            cancelled = i;
            if (q.heap_entries() < before) {
                break; // that cancel compacted the queue
            }
        }
        ASSERT_LT(cancelled + 1, handles.size()) << "no compaction ran";
        EXPECT_EQ(q.tombstones(), 0U);
        expected.push_back(10);
        for (std::size_t i = cancelled + 1; i < handles.size(); ++i) {
            expected.push_back(10 + static_cast<int>(i));
        }
        EXPECT_EQ(q.size(), expected.size());
        EXPECT_EQ(drain(q, log), expected) << "cancel_hold=" << cancel_hold;
    }
}

TEST(EventQueueHold, RenumberingSeesTheHeldEntry) {
    // The pushes that straddle the sequence counter's wrap must keep FIFO
    // order with the held entry and its chain.
    EventQueue q;
    std::vector<int> log;
    EventQueueTestPeer::near_renumber(q, 4);
    push_tag(q, 2, log, 1); // the hold; chain for t = 2
    push_tag(q, 2, log, 2); // chained
    push_tag(q, 3, log, 3);
    push_tag(q, 1, log, 4); // the hold; the t = 2 chain is displaced
    ASSERT_TRUE(EventQueueTestPeer::holds(q));
    push_tag(q, 1, log, 5); // renumbers first, then queues behind 4
    push_tag(q, 2, log, 6); // behind 1 and 2
    push_tag(q, 0.5, log, 7); // takes the hold after renumbering
    EXPECT_TRUE(EventQueueTestPeer::holds(q));
    EXPECT_EQ(q.size(), 7U);
    EXPECT_EQ(drain(q, log), (std::vector<int>{7, 4, 5, 1, 2, 6, 3}));
}

TEST(EventQueue, PopUntilStopsAtTheLimit) {
    EventQueue q;
    std::vector<int> log;
    EXPECT_FALSE(static_cast<bool>(q.pop_until(100_sec).callback));
    const auto dead = push_tag(q, 1, log, 1);
    push_tag(q, 3, log, 2);
    push_tag(q, 5, log, 3);
    ASSERT_TRUE(q.cancel(dead));
    // The tombstone is skipped before the limit test, and the live event
    // past the limit stays queued.
    EXPECT_FALSE(static_cast<bool>(q.pop_until(2_sec).callback));
    EXPECT_EQ(q.tombstones(), 0U);
    EXPECT_EQ(q.size(), 2U);
    auto p = q.pop_until(3_sec); // inclusive
    ASSERT_TRUE(static_cast<bool>(p.callback));
    EXPECT_EQ(p.time, 3_sec);
    p.callback();
    p = q.pop_until(SimTime::infinity());
    ASSERT_TRUE(static_cast<bool>(p.callback));
    EXPECT_EQ(p.time, 5_sec);
    p.callback();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(log, (std::vector<int>{2, 3}));
}

TEST(EventQueue, NearFutureStressMatchesReferenceModel) {
    // The shape the hold serves: most pushes land shortly after the last
    // popped time, often at it, so pushes take and displace the hold,
    // open chains at the front and cancel held entries. Phases of heavy
    // cancelling drive compaction with the hold occupied. Checked against
    // the stable-sort reference, through pop() and pop_until().
    struct Ref {
        double time;
        int tag;
        bool gone = false;
    };
    EventQueue q;
    std::vector<Ref> ref;
    std::vector<std::pair<routesync::sim::EventHandle, std::size_t>> handles;
    std::vector<int> popped;
    std::vector<int> expected;
    std::uint64_t state = 88172645463325252ULL;
    const auto rnd = [&state](std::uint64_t mod) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state % mod;
    };
    double now = 0.0;
    std::size_t live = 0;
    int next_tag = 0;
    std::size_t holds_seen = 0;
    for (int step = 0; step < 40000; ++step) {
        const bool cancel_heavy = (step / 2500) % 3 == 2;
        const auto op = rnd(10);
        if (op < (cancel_heavy ? 3U : 5U)) {
            const double t = rnd(10) < 8 ? now + static_cast<double>(rnd(4))
                                          : now + static_cast<double>(rnd(64));
            const int tag = next_tag++;
            handles.emplace_back(q.push(SimTime::seconds(t),
                                        [&popped, tag] { popped.push_back(tag); }),
                                 ref.size());
            ref.push_back(Ref{t, tag});
            ++live;
            holds_seen += EventQueueTestPeer::holds(q) ? 1U : 0U;
        } else if (op < (cancel_heavy ? 9U : 6U)) {
            if (!handles.empty()) {
                const auto pick = rnd(handles.size());
                ASSERT_TRUE(q.cancel(handles[pick].first));
                ref[handles[pick].second].gone = true;
                handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(pick));
                --live;
            }
        } else {
            std::size_t best = ref.size();
            for (std::size_t i = 0; i < ref.size(); ++i) {
                if (!ref[i].gone && (best == ref.size() || ref[i].time < ref[best].time)) {
                    best = i;
                }
            }
            if (!q.empty()) {
                ASSERT_LE(q.next_time_bound(), SimTime::seconds(ref[best].time));
            }
            // pop() takes the earliest live event whatever its time;
            // pop_until() only one due by the limit.
            const bool bounded = rnd(2) == 0;
            const double limit = now + static_cast<double>(rnd(3));
            EventQueue::Popped p;
            if (bounded) {
                p = q.pop_until(SimTime::seconds(limit));
            } else if (!q.empty()) {
                p = q.pop();
            }
            const bool due = best != ref.size() && (!bounded || ref[best].time <= limit);
            ASSERT_EQ(static_cast<bool>(p.callback), due) << "step " << step;
            if (due) {
                EXPECT_EQ(p.time.sec(), ref[best].time);
                p.callback();
                expected.push_back(ref[best].tag);
                std::erase_if(handles, [best](const auto& e) { return e.second == best; });
                ref[best].gone = true;
                now = ref[best].time;
                --live;
            }
        }
        ASSERT_EQ(q.size(), live);
    }
    EXPECT_EQ(popped, expected);
    EXPECT_GT(popped.size(), 5000U);
    EXPECT_GT(holds_seen, 1000U);
}

} // namespace
