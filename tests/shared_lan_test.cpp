// Tests for the CSMA/CD shared medium.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "net/shared_lan.hpp"
#include "obs/trace_sink.hpp"
#include "obs/tracer.hpp"

namespace {

using namespace routesync;
using net::Packet;
using net::SharedLan;
using net::SharedLanConfig;
using sim::SimTime;
using namespace sim::literals;

struct Delivery {
    int station;
    std::uint64_t seq;
    double at;
};

struct Lan {
    sim::Engine engine;
    SharedLanConfig config;
    SharedLan lan;
    std::vector<Delivery> deliveries;

    explicit Lan(int stations, SharedLanConfig cfg = {})
        : config{cfg}, lan{engine, cfg} {
        for (int i = 0; i < stations; ++i) {
            lan.attach([this, i](const Packet& p) {
                deliveries.push_back(Delivery{i, p.seq, engine.now().sec()});
            });
        }
    }

    void send_at(double t, int station, std::uint64_t seq,
                 std::uint32_t bytes = 1000) {
        engine.schedule_at(SimTime::seconds(t), [this, station, seq, bytes] {
            Packet p;
            p.seq = seq;
            p.size_bytes = bytes;
            lan.send(station, p);
        });
    }
};

TEST(SharedLan, BroadcastReachesEveryOtherStation) {
    Lan lan{4};
    lan.send_at(1.0, 0, 7);
    lan.engine.run();
    ASSERT_EQ(lan.deliveries.size(), 3U);
    for (const auto& d : lan.deliveries) {
        EXPECT_NE(d.station, 0);
        EXPECT_EQ(d.seq, 7U);
        // 1000 B at 10 Mb/s = 0.8 ms, + 10 us propagation.
        EXPECT_NEAR(d.at, 1.0 + 0.0008 + 10e-6, 1e-9);
    }
    EXPECT_EQ(lan.lan.stats().collisions, 0U);
}

TEST(SharedLan, SimultaneousSendersCollideThenResolve) {
    Lan lan{3};
    lan.send_at(1.0, 0, 100);
    lan.send_at(1.0, 1, 200);
    lan.engine.run();
    EXPECT_GE(lan.lan.stats().collisions, 1U);
    // Both frames are ultimately delivered to the other two stations.
    int got_100 = 0;
    int got_200 = 0;
    for (const auto& d : lan.deliveries) {
        got_100 += d.seq == 100;
        got_200 += d.seq == 200;
    }
    EXPECT_EQ(got_100, 2);
    EXPECT_EQ(got_200, 2);
    EXPECT_EQ(lan.lan.stats().frames_delivered, 2U);
}

TEST(SharedLan, CarrierSenseDefersLateSender) {
    Lan lan{2};
    lan.send_at(1.0, 0, 1);
    // 0.5 ms into station 0's 0.8 ms transmission: carrier is visible
    // (beyond the 10 us window), so station 1 defers — no collision.
    lan.send_at(1.0005, 1, 2);
    lan.engine.run();
    EXPECT_EQ(lan.lan.stats().collisions, 0U);
    EXPECT_EQ(lan.lan.stats().frames_delivered, 2U);
    // Frame 2 starts after frame 1 + inter-frame gap.
    ASSERT_EQ(lan.deliveries.size(), 2U);
    EXPECT_GT(lan.deliveries[1].at, lan.deliveries[0].at + 0.0008);
}

TEST(SharedLan, PerStationFifoOrder) {
    Lan lan{2};
    for (std::uint64_t i = 0; i < 5; ++i) {
        lan.send_at(1.0, 0, i);
    }
    lan.engine.run();
    ASSERT_EQ(lan.deliveries.size(), 5U);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(lan.deliveries[i].seq, i);
    }
}

TEST(SharedLan, StationQueueOverflowDrops) {
    SharedLanConfig cfg;
    cfg.station_queue_packets = 3;
    Lan lan{2, cfg};
    for (std::uint64_t i = 0; i < 6; ++i) {
        lan.send_at(1.0, 0, i);
    }
    lan.engine.run();
    EXPECT_EQ(lan.lan.stats().drops_queue_full, 3U);
    EXPECT_EQ(lan.lan.stats().frames_delivered, 3U);
}

TEST(SharedLan, ExcessiveCollisionsDropFrames) {
    SharedLanConfig cfg;
    cfg.max_attempts = 1; // first collision is fatal
    Lan lan{2, cfg};
    lan.send_at(1.0, 0, 1);
    lan.send_at(1.0, 1, 2);
    lan.engine.run();
    EXPECT_EQ(lan.lan.stats().drops_excessive_collisions, 2U);
    EXPECT_EQ(lan.lan.stats().frames_delivered, 0U);
}

TEST(SharedLan, SaturatedStationApproachesLineRate) {
    SharedLanConfig cfg;
    cfg.station_queue_packets = 128;
    Lan lan{2, cfg};
    // 100 frames of 1250 B = 1 ms each at 10 Mb/s.
    for (std::uint64_t i = 0; i < 100; ++i) {
        lan.send_at(0.0, 0, i, 1250);
    }
    lan.engine.run();
    ASSERT_EQ(lan.deliveries.size(), 100U);
    const double elapsed = lan.deliveries.back().at;
    // 100 ms of payload plus 99 inter-frame gaps (~0.95 ms) and slack.
    EXPECT_GT(elapsed, 0.100);
    EXPECT_LT(elapsed, 0.110);
}

TEST(SharedLan, ManyContendersAllGetThrough) {
    Lan lan{8};
    for (int s = 0; s < 8; ++s) {
        lan.send_at(1.0, s, static_cast<std::uint64_t>(s));
    }
    lan.engine.run();
    EXPECT_EQ(lan.lan.stats().frames_delivered, 8U);
    // Each frame heard by the 7 other stations.
    EXPECT_EQ(lan.deliveries.size(), 8U * 7U);
    EXPECT_GE(lan.lan.stats().collisions, 1U);
}

TEST(SharedLan, Deterministic) {
    auto run = [] {
        Lan lan{5};
        for (int s = 0; s < 5; ++s) {
            lan.send_at(1.0, s, static_cast<std::uint64_t>(s));
        }
        lan.engine.run();
        std::vector<double> times;
        for (const auto& d : lan.deliveries) {
            times.push_back(d.at);
        }
        return times;
    };
    EXPECT_EQ(run(), run());
}

TEST(SharedLan, RejectsBadConfig) {
    sim::Engine engine;
    SharedLanConfig bad;
    bad.rate_bps = 0.0;
    EXPECT_THROW(SharedLan(engine, bad), std::invalid_argument);
    bad = SharedLanConfig{};
    bad.max_attempts = 0;
    EXPECT_THROW(SharedLan(engine, bad), std::invalid_argument);
    SharedLan lan{engine, SharedLanConfig{}};
    EXPECT_THROW(lan.attach(nullptr), std::invalid_argument);
}

// ---- listener sets ----------------------------------------------------------

using net::PacketType;
using net::PacketTypeSet;
using net::elements::DispatchMode;

/// One frame of a listener-set run.
struct Frame {
    double at;
    int station;
    PacketType type;
    std::uint32_t bytes;
};

struct ListenerRun {
    std::vector<std::string> deliveries; ///< "station:seq@time", in call order
    net::SharedLanStats stats;
    std::uint64_t events = 0;
};

/// Runs `frames` (frame i carries seq i) over stations that hear
/// `hears[i]`; station i's callback also drops the types in `filter[i]`
/// when given.
ListenerRun run_listeners(const std::vector<PacketTypeSet>& hears,
                          const std::vector<Frame>& frames, DispatchMode mode,
                          const std::vector<PacketTypeSet>& filter = {}) {
    sim::Engine engine;
    SharedLanConfig cfg;
    cfg.dispatch = mode;
    cfg.seed = 11;
    SharedLan lan{engine, cfg};
    ListenerRun run;
    for (std::size_t i = 0; i < hears.size(); ++i) {
        const PacketTypeSet drop = filter.empty() ? PacketTypeSet{} : filter[i];
        lan.attach(
            [&run, &engine, i, drop](const Packet& p) {
                if (drop.contains(p.type)) {
                    return;
                }
                run.deliveries.push_back(std::to_string(i) + ":" +
                                         std::to_string(p.seq) + "@" +
                                         std::to_string(engine.now().sec()));
            },
            hears[i]);
    }
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const Frame f = frames[i];
        engine.schedule_at(SimTime::seconds(f.at), [&lan, f, i] {
            Packet p;
            p.type = f.type;
            p.src = f.station;
            p.seq = i;
            p.size_bytes = f.bytes;
            lan.send(f.station, p);
        });
    }
    engine.run();
    run.stats = lan.stats();
    run.events = engine.events_processed();
    return run;
}

TEST(SharedLanListeners, AStationThatDoesNotHearDataNeverSeesData) {
    const std::vector<PacketTypeSet> hears{
        PacketTypeSet::all(), PacketTypeSet::all(), {PacketType::RoutingUpdate}};
    const std::vector<Frame> frames{{1.0, 0, PacketType::Data, 500},
                                    {2.0, 0, PacketType::RoutingUpdate, 500},
                                    {3.0, 1, PacketType::Data, 500},
                                    {4.0, 2, PacketType::Data, 500}};
    for (const DispatchMode mode : {DispatchMode::Fast, DispatchMode::Virtual}) {
        const ListenerRun run = run_listeners(hears, frames, mode);
        std::vector<std::string> heard_by_2;
        for (const std::string& d : run.deliveries) {
            if (d.rfind("2:", 0) == 0) {
                heard_by_2.push_back(d.substr(0, d.find('@')));
            }
        }
        EXPECT_EQ(heard_by_2, std::vector<std::string>{"2:1"});
        // Frames 0, 2 and 3 reach the stations that hear Data; frame 3's
        // sender is the station that does not.
        EXPECT_EQ(run.deliveries.size(), 6U);
        // Every frame still crosses the wire and counts as delivered.
        EXPECT_EQ(run.stats.frames_delivered, 4U);
    }
}

TEST(SharedLanListeners, MaskedStationsMatchStationsThatFilterInTheirCallback) {
    // Masked stations and stations that hear everything but drop the same
    // types in their callback must see the same stream, in both dispatch
    // modes, with the same medium counters.
    std::mt19937_64 gen{4242};
    const PacketType types[] = {PacketType::Data, PacketType::RoutingUpdate,
                                PacketType::Audio};
    std::vector<Frame> frames;
    for (int i = 0; i < 400; ++i) {
        frames.push_back(Frame{static_cast<double>(gen() % 200000) * 1e-6,
                               static_cast<int>(gen() % 5), types[gen() % 3],
                               64 + static_cast<std::uint32_t>(gen() % 1400)});
    }
    const std::vector<PacketTypeSet> masked{
        PacketTypeSet::all(),
        {PacketType::RoutingUpdate},
        {PacketType::Data, PacketType::Audio},
        {},
        {PacketType::Audio}};
    // What each masked station does not hear, dropped in the callback.
    const std::vector<PacketTypeSet> filter{PacketTypeSet{},
                                            {PacketType::Data, PacketType::Audio},
                                            {PacketType::RoutingUpdate},
                                            PacketTypeSet::all(),
                                            {PacketType::Data, PacketType::RoutingUpdate}};
    const std::vector<PacketTypeSet> everyone(masked.size(), PacketTypeSet::all());
    for (const DispatchMode mode : {DispatchMode::Fast, DispatchMode::Virtual}) {
        const ListenerRun a = run_listeners(masked, frames, mode);
        const ListenerRun b = run_listeners(everyone, frames, mode, filter);
        EXPECT_EQ(a.deliveries, b.deliveries);
        EXPECT_GT(a.deliveries.size(), 400U);
        EXPECT_EQ(a.stats.frames_offered, b.stats.frames_offered);
        EXPECT_EQ(a.stats.frames_delivered, b.stats.frames_delivered);
        EXPECT_EQ(a.stats.collisions, b.stats.collisions);
        EXPECT_EQ(a.stats.drops_queue_full, b.stats.drops_queue_full);
        EXPECT_EQ(a.stats.drops_excessive_collisions,
                  b.stats.drops_excessive_collisions);
    }
}

TEST(SharedLanListeners, AFrameNoOtherStationHearsCostsNoFanOut) {
    // Station 0 alone hears Data; the others hear only updates. Data sent
    // by station 1 reaches station 0; Data sent by station 0 reaches no
    // one and must cost no delivery event at all.
    const std::vector<PacketTypeSet> hears{
        PacketTypeSet::all(), {PacketType::RoutingUpdate}, {PacketType::RoutingUpdate}};
    const std::vector<PacketTypeSet> everyone(3, PacketTypeSet::all());
    std::vector<Frame> frames;
    for (int i = 0; i < 10; ++i) {
        frames.push_back(Frame{0.01 * i, 0, PacketType::Data, 1000});
    }
    frames.push_back(Frame{0.2, 1, PacketType::Data, 1000});
    const ListenerRun fast = run_listeners(hears, frames, DispatchMode::Fast);
    const ListenerRun fast_all = run_listeners(everyone, frames, DispatchMode::Fast);
    ASSERT_EQ(fast.deliveries.size(), 1U);
    EXPECT_EQ(fast.deliveries[0].substr(0, fast.deliveries[0].find('@')), "0:10");
    EXPECT_EQ(fast.stats.frames_delivered, 11U);
    // Fast: one fused fan-out event per heard frame, none per unheard one.
    EXPECT_EQ(fast_all.events - fast.events, 10U);
    // Virtual: one event per (frame, receiver) pair that hears it.
    const ListenerRun virt = run_listeners(hears, frames, DispatchMode::Virtual);
    const ListenerRun virt_all = run_listeners(everyone, frames, DispatchMode::Virtual);
    EXPECT_EQ(virt.deliveries, fast.deliveries);
    EXPECT_EQ(virt_all.events - virt.events, 10U * 2U + 1U);
}

// ---- the frame cycle in place ----------------------------------------------

/// Folds every trace event into a HashingSink, then hands it to `hook`.
class HookSink final : public obs::TraceSink {
public:
    void on_event(const obs::TraceEvent& e) override {
        ++seen_;
        hash.on_event(e);
        if (hook) {
            hook(e);
        }
    }

    obs::HashingSink hash;
    std::function<void(const obs::TraceEvent&)> hook;
};

/// Everything a cycle run exposes at one instant.
struct CycleState {
    std::string stats; ///< every SharedLanStats counter
    std::uint64_t digest = 0;
    std::uint64_t trace_events = 0;
    std::uint64_t events = 0;
    double now = 0.0;
    std::size_t deliveries = 0;

    bool operator==(const CycleState&) const = default;
};

/// A traced LAN whose stations hear `hears[i]`; deliveries are recorded
/// as "station:seq@time".
struct CycleRun {
    sim::Engine engine;
    HookSink sink;
    obs::Tracer tracer{sink};
    std::unique_ptr<SharedLan> lan;
    std::vector<std::string> deliveries;

    CycleRun(DispatchMode mode, const std::vector<PacketTypeSet>& hears,
             SharedLanConfig cfg = {}) {
        engine.set_tracer(&tracer);
        cfg.dispatch = mode;
        lan = std::make_unique<SharedLan>(engine, cfg);
        for (std::size_t i = 0; i < hears.size(); ++i) {
            lan->attach(
                [this, i](const Packet& p) {
                    deliveries.push_back(std::to_string(i) + ":" +
                                         std::to_string(p.seq) + "@" +
                                         std::to_string(engine.now().sec()));
                },
                hears[i]);
        }
    }

    /// Schedules one callback at `t` that sends `frames` back to back
    /// from `station`, as a burst source does.
    void burst_at(double t, int station, int frames, PacketType type,
                  std::uint64_t first_seq, std::uint32_t bytes = 600) {
        engine.schedule_at(SimTime::seconds(t),
                           [this, station, frames, type, first_seq, bytes] {
                               for (int i = 0; i < frames; ++i) {
                                   Packet p;
                                   p.type = type;
                                   p.src = station;
                                   p.seq = first_seq + static_cast<std::uint64_t>(i);
                                   p.size_bytes = bytes + 37U * static_cast<std::uint32_t>(i % 5);
                                   lan->send(station, p);
                               }
                           });
    }

    [[nodiscard]] CycleState state() const {
        const net::SharedLanStats& st = lan->stats();
        return CycleState{std::to_string(st.frames_offered) + "/" +
                              std::to_string(st.frames_delivered) + "/" +
                              std::to_string(st.collisions) + "/" +
                              std::to_string(st.drops_excessive_collisions) + "/" +
                              std::to_string(st.drops_queue_full),
                          sink.hash.digest(),
                          sink.events_seen(),
                          engine.events_processed(),
                          engine.now().sec(),
                          deliveries.size()};
    }
};

/// Backlogs on stations 0 and 1, scattered frames from station 2 (which
/// defer or collide), and routing updates among the Data.
void offer_backlogs(CycleRun& run) {
    run.burst_at(0.0, 0, 40, PacketType::Data, 0);
    run.burst_at(0.0004, 1, 30, PacketType::Data, 100);
    run.burst_at(0.0101, 0, 20, PacketType::RoutingUpdate, 200, 200);
    for (int i = 0; i < 12; ++i) {
        run.burst_at(0.0007 + 0.0031 * i, 2, 1, PacketType::Data,
                     300 + static_cast<std::uint64_t>(i), 900);
    }
}

SharedLanConfig backlog_config() {
    SharedLanConfig cfg;
    cfg.station_queue_packets = 128;
    cfg.seed = 5;
    return cfg;
}

TEST(SharedLanInPlace, SplitRunsMatchOneRun) {
    // run_until stopping inside a backlog, at many targets, ends exactly
    // where one call ends; at each target the clock sits on it and the
    // medium has done what Virtual dispatch (every step queued) has done
    // by then. Two listener layouts: everyone hears everything (fan-out
    // events interleave with the cycle), and nobody hears Data (the
    // cycle runs in place frame after frame).
    const std::vector<std::vector<PacketTypeSet>> layouts{
        std::vector<PacketTypeSet>(4, PacketTypeSet::all()),
        std::vector<PacketTypeSet>(4, PacketTypeSet{PacketType::RoutingUpdate})};
    const SimTime end = SimTime::seconds(0.2);
    for (std::size_t l = 0; l < layouts.size(); ++l) {
        CycleRun whole{DispatchMode::Fast, layouts[l], backlog_config()};
        offer_backlogs(whole);
        whole.engine.run_until(end);

        CycleRun split{DispatchMode::Fast, layouts[l], backlog_config()};
        CycleRun virt{DispatchMode::Virtual, layouts[l], backlog_config()};
        offer_backlogs(split);
        offer_backlogs(virt);
        int inside = 0;
        for (int k = 1; k <= 40; ++k) {
            const SimTime target = SimTime::seconds(0.00137 * k);
            split.engine.run_until(target);
            virt.engine.run_until(target);
            ASSERT_EQ(split.engine.now(), target) << "layout " << l << " k " << k;
            const CycleState a = split.state();
            const CycleState b = virt.state();
            EXPECT_EQ(a.stats, b.stats) << "layout " << l << " k " << k;
            EXPECT_EQ(a.digest, b.digest) << "layout " << l << " k " << k;
            EXPECT_EQ(split.deliveries, virt.deliveries) << "layout " << l << " k " << k;
            inside += split.lan->queued_frames() > 0 ? 1 : 0;
        }
        split.engine.run_until(end);
        EXPECT_EQ(split.state(), whole.state()) << "layout " << l;
        EXPECT_EQ(split.deliveries, whole.deliveries) << "layout " << l;
        EXPECT_EQ(whole.engine.now(), end);
        EXPECT_EQ(whole.lan->stats().frames_delivered + whole.lan->stats().drops_excessive_collisions,
                  102U);
        EXPECT_GT(inside, 30) << "targets must fall inside the backlog";
        // The split run pushed what its cuts refused, the whole run less.
        EXPECT_GE(split.engine.queue_pushes(), whole.engine.queue_pushes());
    }
}

TEST(SharedLanInPlace, QueuedContendAtChannelFreeRunsFirst) {
    // Station 1 senses station 0's carrier and defers to channel_free_at_;
    // station 0 still has a frame, so its own next contend falls at that
    // very instant. The deferred contend was queued first and must run
    // first: station 1 seizes the channel and station 0 collides with it.
    // Which station is "first" in the collision decides the order of the
    // backoff draws, so a reordered tie shows in the delivery times.
    int collided = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SharedLanConfig cfg;
        cfg.seed = seed;
        std::vector<std::string> fast_deliveries;
        CycleState fast_state;
        for (const DispatchMode mode : {DispatchMode::Fast, DispatchMode::Virtual}) {
            CycleRun run{mode, std::vector<PacketTypeSet>(3, PacketTypeSet::all()), cfg};
            run.burst_at(1.0, 0, 2, PacketType::Data, 0, 1000);
            run.burst_at(1.0005, 1, 1, PacketType::Data, 10, 1000);
            run.burst_at(2.0, 0, 3, PacketType::Data, 20, 700);
            run.burst_at(2.0003, 1, 2, PacketType::Data, 30, 1200);
            run.burst_at(2.0004, 2, 1, PacketType::Data, 40, 300);
            run.engine.run();
            if (mode == DispatchMode::Fast) {
                fast_deliveries = run.deliveries;
                fast_state = run.state();
                collided += run.lan->stats().collisions > 0 ? 1 : 0;
            } else {
                EXPECT_EQ(fast_deliveries, run.deliveries) << "seed " << seed;
                EXPECT_EQ(fast_state.stats, run.state().stats) << "seed " << seed;
                EXPECT_EQ(fast_state.digest, run.state().digest) << "seed " << seed;
            }
        }
    }
    EXPECT_EQ(collided, 12);
}

TEST(SharedLanInPlace, StopInAStepRefusesTheNextGrant) {
    // A stop requested while a transmission end runs (here by the trace
    // sink) must end the run right there: the owner's next contend is
    // queued, not run in place. Resuming reaches the uninterrupted run's
    // end state.
    const std::vector<PacketTypeSet> hears{PacketTypeSet::all(),
                                           {PacketType::RoutingUpdate}};
    SharedLanConfig cfg;
    cfg.station_queue_packets = 64;
    CycleRun whole{DispatchMode::Fast, hears, cfg};
    whole.burst_at(0.5, 0, 50, PacketType::Data, 0);
    whole.engine.run();

    CycleRun stopped{DispatchMode::Fast, hears, cfg};
    stopped.burst_at(0.5, 0, 50, PacketType::Data, 0);
    int delivered = 0;
    double stop_time = 0.0;
    stopped.sink.hook = [&](const obs::TraceEvent& e) {
        if (e.type == obs::TraceEventType::PacketDeliver && ++delivered == 10) {
            stop_time = e.time.sec();
            stopped.engine.stop();
        }
    };
    stopped.engine.run();
    EXPECT_TRUE(stopped.engine.stop_requested());
    EXPECT_EQ(stopped.lan->stats().frames_delivered, 10U);
    EXPECT_EQ(stopped.engine.now().sec(), stop_time);
    EXPECT_EQ(stopped.engine.pending_events(), 1U); // the refused contend
    stopped.engine.clear_stop();
    stopped.engine.run();
    EXPECT_EQ(stopped.state(), whole.state());
    EXPECT_EQ(whole.lan->stats().frames_delivered, 50U);
}

TEST(SharedLanInPlace, StepRunsOneEventAndRunGrants) {
    // Nobody hears the Data, so under run() the whole backlog runs in
    // place from the first transmission end: two pushes (the burst and
    // that transmission end) for 40 events (the burst, 20 transmission
    // ends and 19 contends; the first contend runs inside send()).
    // step() runs exactly one event per call and grants none, so every
    // event is pushed.
    const std::vector<PacketTypeSet> hears{PacketTypeSet::all(),
                                           {PacketType::RoutingUpdate}};
    CycleRun stepped{DispatchMode::Fast, hears};
    stepped.burst_at(0.0, 0, 20, PacketType::Data, 0);
    std::uint64_t steps = 0;
    while (stepped.engine.step()) {
        ++steps;
        ASSERT_EQ(stepped.engine.events_processed(), steps);
    }
    CycleRun ran{DispatchMode::Fast, hears};
    ran.burst_at(0.0, 0, 20, PacketType::Data, 0);
    ran.engine.run();
    EXPECT_EQ(stepped.state(), ran.state());
    EXPECT_EQ(ran.engine.events_processed(), 40U);
    EXPECT_EQ(stepped.engine.queue_pushes(), 40U);
    EXPECT_EQ(ran.engine.queue_pushes(), 2U);
}

TEST(SharedLanInPlace, SendNeverRunsAStepInPlace) {
    // A burst source sends its frames in one callback. The first frame
    // seizes the idle channel, but its transmission end is queued: were
    // it run inside send(), the clock would jump before the rest of the
    // burst was queued.
    const std::vector<PacketTypeSet> hears{PacketTypeSet::all(),
                                           {PacketType::RoutingUpdate}};
    CycleRun run{DispatchMode::Fast, hears};
    std::vector<double> clocks;
    std::uint64_t pushes_in_burst = 0;
    run.engine.schedule_at(SimTime::seconds(3.0), [&] {
        const std::uint64_t before = run.engine.queue_pushes();
        for (int i = 0; i < 10; ++i) {
            Packet p;
            p.seq = static_cast<std::uint64_t>(i);
            p.size_bytes = 500;
            run.lan->send(0, p);
            clocks.push_back(run.engine.now().sec());
        }
        pushes_in_burst = run.engine.queue_pushes() - before;
    });
    run.engine.run();
    EXPECT_EQ(clocks, std::vector<double>(10, 3.0));
    EXPECT_EQ(pushes_in_burst, 1U); // the first frame's transmission end
    EXPECT_EQ(run.lan->stats().frames_delivered, 10U);
}

TEST(SharedLanInPlace, DeepBacklogRunsWithoutNesting) {
    // 10^5 frames on one station and nothing else queued: every step
    // after the first transmission end is granted, and the trampoline
    // runs them all at one stack depth.
    constexpr int kFrames = 100000;
    SharedLanConfig cfg;
    cfg.station_queue_packets = kFrames;
    CycleRun run{DispatchMode::Fast, {PacketTypeSet::all()}, cfg};
    run.burst_at(0.0, 0, kFrames, PacketType::Data, 0, 64);
    std::uintptr_t lo = UINTPTR_MAX;
    std::uintptr_t hi = 0;
    run.sink.hook = [&](const obs::TraceEvent& e) {
        if (e.type == obs::TraceEventType::PacketDeliver) {
            const auto frame = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
            lo = std::min(lo, frame);
            hi = std::max(hi, frame);
        }
    };
    run.engine.run();
    EXPECT_EQ(run.lan->stats().frames_delivered, static_cast<std::uint64_t>(kFrames));
    // The burst, kFrames transmission ends, kFrames - 1 contends.
    EXPECT_EQ(run.engine.events_processed(), 2U * kFrames);
    EXPECT_EQ(run.engine.queue_pushes(), 2U);
    // The first transmission end runs from its event's callback, every
    // later one from the trampoline's loop: at most two depths, a few
    // hundred bytes apart. Nesting would take ~10^5 frames.
    EXPECT_LT(hi - lo, 4096U) << "the frame cycle nested " << (hi - lo) << " bytes deep";
}

} // namespace
