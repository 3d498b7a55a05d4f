// Allocation budgets of a PM kernel trial on each queue, of a monitored
// one and of a shared-LAN scenario run.
//
// Once a small-n trial has reached its working size, its steady state —
// timer fires, busy checks (queued or run inline), re-arms and the
// ClusterTracker feed — must not touch the heap. A calendar-queue trial
// returns a drained bucket larger than kPmBucketRetainEvents and re-grows
// it on the cluster's next day, so its count is not zero but stated: each
// shape's count over a fixed window is pinned. A monitored trial feeds a
// SyncMonitor too, whose per-re-arm update allocates nothing; only its
// growth may: a new coupling edge (the edge list, and the table once it
// is half full) or a detector crossing (the transition record). Its
// counts are pinned beside the edges and crossings. Likewise a shared-LAN run
// allocates only while it is built: its packet FIFOs are PacketRings
// sized at construction, and its engine, packet pool and tracker keep
// what they reach. This binary replaces the global operator new with a
// counting one, so it is its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/core.hpp"
#include "obs/sync_monitor.hpp"
#include "obs/trace_sink.hpp"
#include "obs/tracer.hpp"
#include "scenarios/shared_lan_scenario.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

} // namespace

// noinline: inlined into a `new T` / `delete` pair, GCC 12 sees free()
// of an operator new pointer and, under ASan, fails the build with
// -Werror=mismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace routesync;

TEST(AllocBudget, CounterSeesTheKernelsAllocations) {
    // Guards the budget below against a replacement that is not linked
    // in: building a kernel allocates its node arrays.
    core::ModelParams p;
    p.n = 10;
    const std::uint64_t before = g_allocations.load();
    const core::PmKernel kernel{p};
    EXPECT_GE(g_allocations.load() - before, 4U);
}

TEST(AllocBudget, SortedRunTrialAllocatesNothingPastWarmUp) {
    // The Figure 13 shapes around the sync threshold (Tr = 0.6 Tc, 0.9 Tc
    // and 8 Tc at Tc = 0.11 s), both start conditions, and the largest n
    // on the sorted run; 2·10^4 s of warm-up, then 8·10^4 s at a budget
    // of zero.
    for (const int n : {10, 20, 30, core::kPmCalendarMinNodes - 1}) {
        for (const core::StartCondition start :
             {core::StartCondition::Unsynchronized, core::StartCondition::Synchronized}) {
            for (const double tr : {0.066, 0.1, 0.88}) {
                const std::string where =
                    "n=" + std::to_string(n) + " tr=" + std::to_string(tr) +
                    (start == core::StartCondition::Synchronized ? " sync" : " unsync");
                core::ModelParams p;
                p.n = n;
                p.tc = sim::SimTime::seconds(0.11);
                p.tr = sim::SimTime::seconds(tr);
                p.start = start;
                p.seed = 0xa110c + static_cast<std::uint64_t>(n);
                core::PmKernel kernel{p};
                ASSERT_FALSE(kernel.calendar_queue()) << where;
                core::ClusterTracker tracker{n, kernel.round_length()};
                tracker.record_rounds(false);
                kernel.set_tracker_sink(&tracker);
                kernel.run_until(sim::SimTime::seconds(2e4));

                const std::uint64_t tx_before = kernel.total_transmissions();
                const std::uint64_t before = g_allocations.load();
                kernel.run_until(sim::SimTime::seconds(1e5));
                const std::uint64_t allocations = g_allocations.load() - before;

                EXPECT_EQ(allocations, 0U) << where;
                EXPECT_GT(kernel.total_transmissions(), tx_before + 1000) << where;
            }
        }
    }
}

TEST(AllocBudget, CalendarTrialAllocationsArePinned) {
    // The Figure 15 shape (Tp = 121 s, Tc = 0.11 s, Tr = 0.3 s) past the
    // cliff, both start conditions: 2·10^4 s of warm-up, then the
    // allocations of 2·10^4 .. 6·10^4 s. Every round is one synchronized
    // cluster whose re-arms fill a few calendar days past
    // kPmBucketRetainEvents, and each such bucket re-grows by doubling:
    // 19 to 23 allocations per closed round. The counts are deterministic,
    // so a change to one is a change to the queue's storage policy.
    struct Shape {
        int n;
        core::StartCondition start;
        std::uint64_t allocations;
        std::uint64_t rounds;
    };
    const Shape shapes[] = {
        {300, core::StartCondition::Unsynchronized, 4918, 261},
        {300, core::StartCondition::Synchronized, 5971, 261},
        {1000, core::StartCondition::Unsynchronized, 3744, 174},
        {1000, core::StartCondition::Synchronized, 3952, 173},
        {3000, core::StartCondition::Unsynchronized, 1769, 89},
        {3000, core::StartCondition::Synchronized, 1793, 89},
    };
    for (const Shape& shape : shapes) {
        const std::string where =
            "n=" + std::to_string(shape.n) +
            (shape.start == core::StartCondition::Synchronized ? " sync" : " unsync");
        core::ModelParams p;
        p.n = shape.n;
        p.tc = sim::SimTime::seconds(0.11);
        p.tr = sim::SimTime::seconds(0.3);
        p.start = shape.start;
        p.seed = 0xa110c + static_cast<std::uint64_t>(shape.n);
        core::PmKernel kernel{p};
        ASSERT_TRUE(kernel.calendar_queue()) << where;
        core::ClusterTracker tracker{shape.n, kernel.round_length()};
        tracker.record_rounds(false);
        kernel.set_tracker_sink(&tracker);
        kernel.run_until(sim::SimTime::seconds(2e4));

        const std::uint64_t rounds_before = tracker.rounds_closed();
        const std::uint64_t before = g_allocations.load();
        kernel.run_until(sim::SimTime::seconds(6e4));
        const std::uint64_t allocations = g_allocations.load() - before;
        const std::uint64_t rounds = tracker.rounds_closed() - rounds_before;

        EXPECT_EQ(allocations, shape.allocations) << where;
        EXPECT_EQ(rounds, shape.rounds) << where;
    }
}

TEST(AllocBudget, MonitoredSortedRunTrialAllocationsArePinned) {
    // Figure 13's monitored trials at Tc = 0.11 s on the sorted run: N =
    // 10, 20 and 30, Tr = 0.6 Tc, 0.9 Tc and 8 Tc, unsynchronized starts.
    // The kernel feeds the tracker and the monitor as direct sinks, as
    // run_experiment wires a monitored trial. 2·10^4 s of warm-up, then
    // the allocations of 2·10^4 .. 10^5 s, with the coupling edges and
    // detector crossings that window added: windows that add neither
    // allocate nothing, and every count is deterministic.
    struct Shape {
        int n;
        double tr;
        std::uint64_t allocations;
        std::uint64_t new_edges;
        std::uint64_t crossings;
    };
    const Shape shapes[] = {
        {10, 0.066, 0, 0, 0},   {10, 0.1, 0, 2, 0},    {10, 0.88, 2, 10, 0},
        {20, 0.066, 9, 378, 1}, {20, 0.1, 2, 27, 0},   {20, 0.88, 2, 67, 0},
        {30, 0.066, 3, 515, 1}, {30, 0.1, 0, 335, 0},  {30, 0.88, 2, 118, 0},
    };
    for (const Shape& shape : shapes) {
        const std::string where =
            "n=" + std::to_string(shape.n) + " tr=" + std::to_string(shape.tr);
        core::ModelParams p;
        p.n = shape.n;
        p.tc = sim::SimTime::seconds(0.11);
        p.tr = sim::SimTime::seconds(shape.tr);
        p.seed = 0xa110c + static_cast<std::uint64_t>(shape.n);
        core::PmKernel kernel{p};
        ASSERT_FALSE(kernel.calendar_queue()) << where;
        core::ClusterTracker tracker{shape.n, kernel.round_length()};
        tracker.record_rounds(false);
        tracker.record_round_sizes(true);
        obs::SyncMonitor monitor{obs::SyncMonitorConfig{
            .n = shape.n, .period_sec = kernel.round_length().sec()}};
        kernel.set_tracker_sink(&tracker);
        kernel.set_monitor_sink(&monitor);
        kernel.run_until(sim::SimTime::seconds(2e4));

        const std::uint64_t tx_before = kernel.total_transmissions();
        const std::size_t edges_before = monitor.coupling().edge_count();
        const std::uint64_t crossings_before = monitor.report().transitions;
        const std::uint64_t before = g_allocations.load();
        kernel.run_until(sim::SimTime::seconds(1e5));
        const std::uint64_t allocations = g_allocations.load() - before;

        EXPECT_EQ(allocations, shape.allocations) << where;
        EXPECT_EQ(monitor.coupling().edge_count() - edges_before, shape.new_edges) << where;
        EXPECT_EQ(monitor.report().transitions - crossings_before, shape.crossings)
            << where;
        EXPECT_GT(kernel.total_transmissions(), tx_before + 1000) << where;
        EXPECT_EQ(monitor.report().transmissions, kernel.total_transmissions()) << where;
    }
}

/// Allocations made by one traced shared-LAN run of `cfg` to `seconds`.
std::uint64_t shared_lan_allocations(scenarios::SharedLanScenarioConfig cfg,
                                     double seconds,
                                     scenarios::SharedLanScenarioResult& result) {
    obs::HashingSink sink;
    obs::Tracer tracer{sink};
    cfg.tracer = &tracer;
    cfg.max_time = sim::SimTime::seconds(seconds);
    const std::uint64_t before = g_allocations.load();
    result = scenarios::run_shared_lan_scenario(cfg);
    return g_allocations.load() - before;
}

TEST(AllocBudget, SharedLanRunAllocatesNothingPastSetUp) {
    // Both disciplines, buffers 4 and 32, loads 0.8 and 1.2 (background
    // bursts of 8 and 12 frames), traced, seed 7: a 300 s run makes
    // exactly the allocations of a 100 s run — those of building the
    // scenario. (With std::deque FIFOs a RED run at buffer 4, load 0.8
    // read 1 037 vs 2 543.) The packet and payload pools are per thread
    // and keep their slots, so one run first brings them to size.
    scenarios::SharedLanScenarioConfig base;
    base.seed = 7;
    scenarios::SharedLanScenarioResult warm;
    (void)shared_lan_allocations(base, 300.0, warm);
    for (const auto disc : {net::elements::QueueDisc::DropTail,
                            net::elements::QueueDisc::Red}) {
        for (const std::size_t buffer : {std::size_t{4}, std::size_t{32}}) {
            for (const int burst : {8, 12}) {
                scenarios::SharedLanScenarioConfig cfg = base;
                cfg.queue_disc = disc;
                cfg.queue_packets = buffer;
                cfg.bg_burst = burst;
                const std::string where =
                    std::string{net::elements::queue_disc_name(disc)} +
                    " buffer=" + std::to_string(buffer) +
                    " burst=" + std::to_string(burst);
                scenarios::SharedLanScenarioResult short_run;
                scenarios::SharedLanScenarioResult long_run;
                const std::uint64_t at_100 = shared_lan_allocations(cfg, 100.0, short_run);
                const std::uint64_t at_300 = shared_lan_allocations(cfg, 300.0, long_run);
                EXPECT_EQ(at_300, at_100) << where;
                EXPECT_GT(at_100, 0U) << where; // the counter sees the set-up
                ASSERT_EQ(long_run.end_time_s, 300.0) << where;
                EXPECT_GT(long_run.frames_delivered, 2 * short_run.frames_delivered)
                    << where;
            }
        }
    }
}

} // namespace
