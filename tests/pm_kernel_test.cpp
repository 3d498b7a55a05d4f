// Tests for the PM fast-path kernel (core/pm_kernel.hpp).
//
// The kernel's contract is *bit-identity* with the engine-backed
// PeriodicMessagesModel: same RNG draw order, same (time, FIFO) event
// execution order, same events_processed count, same callback and trace
// streams, and the same final node state — on both event queues. The
// tests here enforce that over a randomized sample of the whole
// parameter space (N, Tp, Tr, Tc, start condition, notification mode,
// reset-at-expiry, per-node periods and costs, explicit phases, timer
// policies, triggered updates, scheduled hooks), then again at the
// run_experiment level where the ClusterTracker series and metrics
// snapshots must agree field for field, and fuzz both queues against a
// reference ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "obs/profiler.hpp"
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
    // spill lane must interleave them in exact (time, seq) order. This is
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

// ---------------------------------------------------------------------------
// PmSortedRunQueue: the same reference order, with the kernel's push
// discipline (increasing seqs, times never before the last pop). The run
// keeps no seq, so each push's node field carries its seq.

/// Pops one event from `q` and checks it against the reference minimum.
void expect_pop_matches(core::PmSortedRunQueue& q, std::vector<RefEvent>& ref,
                        double& now) {
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

/// Callback stream digest: every on_transmit / on_timer_set / hook event,
/// in order, folded into one hash. Any reordering, drop, or changed
/// timestamp diverges the digest.
struct StreamHash {
    std::uint64_t h = 1469598103934665603ULL;
    void transmit(int node, sim::SimTime t) {
        h = fnv1a(h, 0x11);
        h = fnv1a(h, static_cast<std::uint64_t>(node));
        h = hash_bits(h, t.sec());
    }
    void timer_set(int node, sim::SimTime t) {
        h = fnv1a(h, 0x22);
        h = fnv1a(h, static_cast<std::uint64_t>(node));
        h = hash_bits(h, t.sec());
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

/// Everything a kernel (or its engine twin) exposes at the end of a run.
struct TrialDigest {
    std::uint64_t stream = 0;
    std::uint64_t trace = 0;
    std::uint64_t events = 0;
    std::uint64_t transmissions = 0;
    double now_sec = 0.0;
    std::uint64_t state = 0;
};

TrialDigest run_engine(const TrialSpec& spec) {
    StreamHash stream;
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
    engine.run_until(spec.horizon);

    TrialDigest d;
    d.stream = stream.h;
    d.trace = sink.h;
    d.events = engine.events_processed();
    d.transmissions = model.total_transmissions();
    d.now_sec = engine.now().sec();
    d.state = 1469598103934665603ULL;
    for (int i = 0; i < spec.params.n; ++i) {
        d.state = node_state_hash(d.state, model.node(i));
    }
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
    kernel.run_until(spec.horizon);

    TrialDigest d;
    d.stream = stream.h;
    d.trace = sink.h;
    d.events = kernel.events_processed();
    d.transmissions = kernel.total_transmissions();
    d.now_sec = kernel.now().sec();
    d.state = 1469598103934665603ULL;
    for (int i = 0; i < spec.params.n; ++i) {
        d.state = node_state_hash(d.state, kernel.node(i));
    }
    return d;
}

void expect_same_digest(const TrialDigest& got, const TrialDigest& want,
                        const std::string& where) {
    ASSERT_EQ(got.stream, want.stream) << "callback stream diverged at " << where;
    ASSERT_EQ(got.trace, want.trace) << "trace stream diverged at " << where;
    ASSERT_EQ(got.events, want.events) << "event count diverged at " << where;
    ASSERT_EQ(got.transmissions, want.transmissions) << where;
    ASSERT_EQ(got.now_sec, want.now_sec) << where;
    ASSERT_EQ(got.state, want.state) << "final node state diverged at " << where;
}

TEST(PmKernelDifferential, MatchesEngineOnRandomizedParameterSweep) {
    std::mt19937_64 rng{0xf10d5ULL};
    for (int point = 0; point < 200; ++point) {
        const TrialSpec spec = sample_trial(rng);
        ASSERT_NO_FATAL_FAILURE(expect_same_digest(
            run_kernel(spec), run_engine(spec),
            "point " + std::to_string(point) + " (n=" +
                std::to_string(spec.params.n) + " seed=" +
                std::to_string(spec.params.seed) + ")"));
    }
}

TEST(PmKernelDifferential, MatchesEngineAtLargeNSynchronizedRounds) {
    // Large-n configs where every router's timer lands in one calendar
    // day (the batched-expiry path end to end, not just the queue fuzz):
    // a synchronized start drops all n timers at t = 0, and at n ~ 1500
    // with the Figure 15 parameters an unsynchronized start collapses
    // into one busy chain within the first round. The case just below
    // the queue threshold runs the same shape on the sorted-run queue.
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
        const TrialDigest want = run_engine(spec);
        ASSERT_NO_FATAL_FAILURE(
            expect_same_digest(run_kernel(spec), want, "n=" + std::to_string(c.n)));
        EXPECT_GT(want.transmissions, 0U);
    }

    // At the queue threshold itself: a synchronized start under a chain
    // of scheduled hooks, an unsynchronized start, and the per-node busy
    // variant (AfterPreparation notification).
    const int big = core::kPmCalendarMinNodes;
    TrialSpec hooked = metro_trial(big, 0xca1, true);
    hooked.hooks = 4;
    hooked.hook_every = sim::SimTime::seconds(37.0);
    TrialSpec unsynced = metro_trial(big + 7, 0xca2, false);
    TrialSpec after = metro_trial(big, 0xca3, true);
    after.params.notification = core::Notification::AfterPreparation;
    after.horizon = sim::SimTime::seconds(250.0);
    for (const TrialSpec& spec : {hooked, unsynced, after}) {
        ASSERT_NO_FATAL_FAILURE(expect_same_digest(
            run_kernel(spec), run_engine(spec),
            "n=" + std::to_string(spec.params.n) +
                " seed=" + std::to_string(spec.params.seed)));
    }
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
    // events) and the run summary must match field for field.
    std::mt19937_64 rng{0xc105e5ULL};
    for (int point = 0; point < 24; ++point) {
        core::ExperimentConfig cfg = sample_experiment(rng);
        cfg.backend = core::ExperimentBackend::Engine;
        const core::ExperimentResult eng = core::run_experiment(cfg);
        cfg.backend = core::ExperimentBackend::FastKernel;
        const core::ExperimentResult ker = core::run_experiment(cfg);
        ASSERT_NO_FATAL_FAILURE(
            expect_same_experiment(ker, eng, "point " + std::to_string(point)));
    }
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

} // namespace
