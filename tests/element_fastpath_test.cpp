// Randomized fast-vs-virtual differential for the element-graph packet
// path. DispatchMode::Fast (the default since the devirtualization) must
// be bit-identical to DispatchMode::Virtual in every observable: the
// delivered packet stream (ids, order, timestamps), every elem.* counter,
// and the trace event stream (compared as a 64-bit FNV digest, which
// covers event types, times, sequence numbers, and payload slots). Only
// engine event counts may differ — the fast paths exist precisely to
// schedule fewer events — so events_processed() is deliberately NOT
// compared.
//
// The generator sweeps the regimes where the fast paths branch: infinite
// vs finite link rate (the coalesced drain cascade), drop-tail vs RED
// (the devirtualized queue thunks and the RED lottery), tiny queues
// (overflow drops), carrier flaps (down-drops mid-run), multi-hop chains
// (batched handoff), and CSMA/CD LANs (the fused broadcast fan-out,
// with random listener sets and frame types, and the frame cycle run in
// place: long backlogs, propagation below, at and above the inter-frame
// gap).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "net/elements/elements.hpp"
#include "net/link.hpp"
#include "net/shared_lan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"

namespace {

using namespace routesync;
using namespace routesync::net;
using namespace routesync::net::elements;

/// Everything one run exposes; Fast and Virtual records must be equal.
struct RunRecord {
    std::vector<std::string> deliveries;
    std::string metrics_json;
    std::uint64_t trace_digest = 0;
    std::uint64_t trace_events = 0;

    bool operator==(const RunRecord&) const = default;
};

struct LinkCase {
    int hops = 1;              // links chained back to back
    double rate_bps = 0.0;     // 0 = infinite rate (the drain-cascade regime)
    double delay_ms = 1.0;
    std::size_t queue_packets = 4;
    QueueDisc disc = QueueDisc::DropTail;
    int packets = 50;
    std::uint32_t max_bytes = 1000;
    double window_ms = 50.0;  // send times drawn from [0, window)
    bool carrier_flap = false; // first hop drops carrier mid-window
    std::uint64_t seed = 1;    // send-schedule generator
};

RunRecord run_link_case(const LinkCase& c, DispatchMode mode) {
    sim::Engine engine;
    obs::HashingSink sink;
    obs::Tracer tracer{sink};
    engine.set_tracer(&tracer);

    RunRecord rec;
    std::vector<std::unique_ptr<Link>> links(static_cast<std::size_t>(c.hops));
    LinkConfig cfg;
    cfg.rate_bps = c.rate_bps;
    cfg.delay = sim::SimTime::millis(c.delay_ms);
    cfg.queue_packets = c.queue_packets;
    cfg.queue_disc = c.disc;
    cfg.red = RedTuning{/*min_th=*/static_cast<double>(c.queue_packets) * 0.25,
                        /*max_th=*/static_cast<double>(c.queue_packets) * 0.75,
                        /*max_p=*/0.3, /*weight=*/0.3, /*seed=*/7};
    cfg.dispatch = mode;
    // Build back to front so each link forwards into the next.
    for (int h = c.hops - 1; h >= 0; --h) {
        if (h == c.hops - 1) {
            links[static_cast<std::size_t>(h)] = std::make_unique<Link>(
                engine, cfg, [&rec, &engine](PooledPacket p) {
                    rec.deliveries.push_back(std::to_string(p->seq) + "@" +
                                             std::to_string(engine.now().sec()));
                });
        } else {
            Link* next = links[static_cast<std::size_t>(h) + 1].get();
            links[static_cast<std::size_t>(h)] = std::make_unique<Link>(
                engine, cfg,
                [next](PooledPacket p) { next->send(std::move(p)); });
        }
    }

    // The send schedule is a pure function of the case seed, so Fast and
    // Virtual runs offer the identical workload.
    std::mt19937_64 rng{c.seed};
    std::uniform_real_distribution<double> when{0.0, c.window_ms};
    std::uniform_int_distribution<std::uint32_t> bytes{40, c.max_bytes};
    for (int i = 0; i < c.packets; ++i) {
        Packet p;
        p.src = 0;
        p.dst = 1;
        p.seq = static_cast<std::uint64_t>(i);
        p.size_bytes = bytes(rng);
        const double at_ms = when(rng);
        engine.schedule_at(sim::SimTime::millis(at_ms),
                           [&links, p = std::move(p)]() mutable {
                               links.front()->send(std::move(p));
                           });
    }
    if (c.carrier_flap) {
        engine.schedule_at(sim::SimTime::millis(c.window_ms * 0.3),
                           [&links] { links.front()->set_up(false); });
        engine.schedule_at(sim::SimTime::millis(c.window_ms * 0.6),
                           [&links] { links.front()->set_up(true); });
    }
    engine.run();

    obs::MetricsRegistry reg;
    for (std::size_t h = 0; h < links.size(); ++h) {
        links[h]->graph().collect_metrics(reg, "elem.hop" + std::to_string(h));
    }
    rec.metrics_json = reg.snapshot().to_json();
    rec.trace_digest = sink.digest();
    rec.trace_events = sink.events_seen();
    return rec;
}

struct LanCase {
    int stations = 3;
    std::size_t queue_packets = 4;
    QueueDisc disc = QueueDisc::DropTail;
    int frames = 60;
    std::uint32_t max_bytes = 1000;
    double window_ms = 20.0;
    std::uint64_t seed = 1;
    /// Station i's listener set; stations past the end hear every type.
    std::vector<PacketTypeSet> hears;
    /// Propagation delay; the inter-frame gap is 9.6 us, so below it a
    /// frame's fan-out precedes its owner's next contend, above it the
    /// contend comes first, and at it the two tie.
    double prop_delay_us = 10.0;
    /// Bursts of `burst_frames` frames that one station sends in one
    /// callback: long backlogs whose frame cycle runs in place.
    int bursts = 0;
    int burst_frames = 0;
};

/// Adds the run's engine events and queue pushes to `events` and
/// `pushes` when given (not part of the record: Fast runs fewer of both).
RunRecord run_lan_case(const LanCase& c, DispatchMode mode,
                       std::uint64_t* events = nullptr,
                       std::uint64_t* pushes = nullptr) {
    sim::Engine engine;
    obs::HashingSink sink;
    obs::Tracer tracer{sink};
    engine.set_tracer(&tracer);

    SharedLanConfig cfg;
    cfg.rate_bps = 1e6;
    cfg.station_queue_packets = c.queue_packets;
    cfg.queue_disc = c.disc;
    cfg.red = RedTuning{/*min_th=*/static_cast<double>(c.queue_packets) * 0.25,
                        /*max_th=*/static_cast<double>(c.queue_packets) * 0.75,
                        /*max_p=*/0.3, /*weight=*/0.3, /*seed=*/5};
    cfg.seed = c.seed + 1;
    cfg.prop_delay = sim::SimTime::micros(c.prop_delay_us);
    cfg.dispatch = mode;
    SharedLan lan{engine, cfg};

    RunRecord rec;
    for (int s = 0; s < c.stations; ++s) {
        const auto i = static_cast<std::size_t>(s);
        (void)lan.attach(
            [&rec, &engine, s](const Packet& p) {
                rec.deliveries.push_back(std::to_string(s) + ":" +
                                         std::to_string(p.seq) + "@" +
                                         std::to_string(engine.now().sec()));
            },
            i < c.hears.size() ? c.hears[i] : PacketTypeSet::all());
    }

    std::mt19937_64 rng{c.seed};
    std::uniform_real_distribution<double> when{0.0, c.window_ms};
    std::uniform_int_distribution<int> which{0, c.stations - 1};
    std::uniform_int_distribution<std::uint32_t> bytes{64, c.max_bytes};
    constexpr PacketType kTypes[] = {PacketType::Data, PacketType::RoutingUpdate,
                                     PacketType::Audio};
    for (int i = 0; i < c.frames; ++i) {
        Packet p;
        p.type = kTypes[rng() % 3];
        p.src = which(rng);
        p.dst = -1;
        p.seq = static_cast<std::uint64_t>(i);
        p.size_bytes = bytes(rng);
        const double at_ms = when(rng);
        const int station = p.src;
        engine.schedule_at(sim::SimTime::millis(at_ms),
                           [&lan, station, p = std::move(p)]() mutable {
                               lan.send(station, std::move(p));
                           });
    }
    for (int b = 0; b < c.bursts; ++b) {
        std::vector<Packet> burst;
        const int station = which(rng);
        for (int i = 0; i < c.burst_frames; ++i) {
            Packet p;
            p.type = kTypes[rng() % 3];
            p.src = station;
            p.dst = -1;
            p.seq = static_cast<std::uint64_t>(c.frames + b * c.burst_frames + i);
            p.size_bytes = bytes(rng);
            burst.push_back(p);
        }
        engine.schedule_at(sim::SimTime::millis(when(rng)),
                           [&lan, station, burst = std::move(burst)] {
                               for (const Packet& p : burst) {
                                   lan.send(station, p);
                               }
                           });
    }
    engine.run();

    obs::MetricsRegistry reg;
    lan.graph().collect_metrics(reg, "elem.lan");
    rec.metrics_json = reg.snapshot().to_json();
    rec.trace_digest = sink.digest();
    rec.trace_events = sink.events_seen();
    if (events != nullptr && pushes != nullptr) {
        *events += engine.events_processed();
        *pushes += engine.queue_pushes();
    }
    return rec;
}

// ---- the differential ---------------------------------------------------

TEST(ElementFastPath, RandomizedLinkConfigsMatchVirtual) {
    std::mt19937_64 gen{20260808};
    int checked = 0;
    for (int i = 0; i < 80; ++i) {
        LinkCase c;
        c.hops = 1 + static_cast<int>(gen() % 3);
        c.rate_bps = (gen() % 2 == 0)
                         ? 0.0
                         : 5e5 + static_cast<double>(gen() % 5000000);
        c.delay_ms = 0.1 + static_cast<double>(gen() % 20) / 10.0;
        c.queue_packets = 2 + gen() % 8; // small: overflow happens
        c.disc = (gen() % 2 == 0) ? QueueDisc::DropTail : QueueDisc::Red;
        c.packets = 30 + static_cast<int>(gen() % 90);
        c.max_bytes = 200 + static_cast<std::uint32_t>(gen() % 1300);
        c.window_ms = 10.0 + static_cast<double>(gen() % 80);
        c.carrier_flap = gen() % 3 == 0;
        c.seed = gen();

        const RunRecord fast = run_link_case(c, DispatchMode::Fast);
        const RunRecord virt = run_link_case(c, DispatchMode::Virtual);
        ASSERT_EQ(fast, virt)
            << "link case " << i << ": hops=" << c.hops
            << " rate=" << c.rate_bps << " queue=" << c.queue_packets
            << " disc=" << (c.disc == QueueDisc::Red ? "red" : "droptail")
            << " flap=" << c.carrier_flap << " seed=" << c.seed;
        EXPECT_GT(fast.trace_events, 0U);
        ++checked;
    }
    EXPECT_EQ(checked, 80);
}

TEST(ElementFastPath, RandomizedLanConfigsMatchVirtual) {
    std::mt19937_64 gen{997};
    int checked = 0;
    std::uint64_t fast_events = 0;
    std::uint64_t fast_pushes = 0;
    for (int i = 0; i < 40; ++i) {
        LanCase c;
        c.stations = 2 + static_cast<int>(gen() % 4);
        c.queue_packets = 2 + gen() % 6;
        c.disc = (gen() % 2 == 0) ? QueueDisc::DropTail : QueueDisc::Red;
        c.frames = 30 + static_cast<int>(gen() % 80);
        c.max_bytes = 200 + static_cast<std::uint32_t>(gen() % 1300);
        c.window_ms = 5.0 + static_cast<double>(gen() % 40);
        c.seed = gen();
        // Listener sets: everything, one type, two types or nothing.
        const PacketTypeSet menu[] = {
            PacketTypeSet::all(),
            {PacketType::RoutingUpdate},
            {PacketType::Data},
            {PacketType::Data, PacketType::RoutingUpdate},
            {PacketType::Audio, PacketType::PingRequest},
            {}};
        for (int s = 0; s < c.stations; ++s) {
            c.hears.push_back(menu[gen() % std::size(menu)]);
        }
        // Propagation below, at and above the 9.6 us inter-frame gap.
        const double props[] = {2.0, 9.6, 10.0, 40.0};
        c.prop_delay_us = props[gen() % std::size(props)];
        // Every other case adds long backlogs (and queues to hold them).
        if (gen() % 2 == 0) {
            c.bursts = 1 + static_cast<int>(gen() % 3);
            c.burst_frames = 20 + static_cast<int>(gen() % 180);
            c.queue_packets = 32 + gen() % 200;
        }

        const RunRecord fast =
            run_lan_case(c, DispatchMode::Fast, &fast_events, &fast_pushes);
        const RunRecord virt = run_lan_case(c, DispatchMode::Virtual);
        ASSERT_EQ(fast, virt)
            << "lan case " << i << ": stations=" << c.stations
            << " queue=" << c.queue_packets
            << " disc=" << (c.disc == QueueDisc::Red ? "red" : "droptail")
            << " prop_us=" << c.prop_delay_us << " bursts=" << c.bursts
            << "x" << c.burst_frames << " seed=" << c.seed;
        EXPECT_GT(fast.trace_events, 0U);
        ++checked;
    }
    EXPECT_EQ(checked, 40);
    // The frame cycle ran in place: over a tenth of Fast's events (14 %
    // with this generator) were never pushed.
    EXPECT_LT(fast_pushes, fast_events - fast_events / 10);
}

// The empty-trace digest is the FNV offset basis and events fold
// deterministically — the sink the differentials above lean on.
TEST(ElementFastPath, HashingSinkIsDeterministic) {
    obs::HashingSink a;
    obs::HashingSink b;
    EXPECT_EQ(a.digest(), b.digest());
    obs::TraceEvent e;
    e.seq = 3;
    e.time = sim::SimTime::seconds(1.5);
    e.type = obs::TraceEventType::PacketDeliver;
    e.node = 2;
    e.a = 42;
    e.b = 100.0;
    a.on_event(e);
    EXPECT_NE(a.digest(), b.digest());
    b.on_event(e);
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.events_seen(), 1U);
}

} // namespace
