// Tests for the CSMA/CD shared medium.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "net/shared_lan.hpp"

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

} // namespace
