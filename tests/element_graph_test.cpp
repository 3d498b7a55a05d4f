// Tests for the composable element layer (net/elements/): port typing
// and wiring validation, the declarative wire() spec, queue-discipline
// interchangeability when no drops occur, RED's drop accounting, and
// determinism of RED runs under the parallel runner.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/elements/elements.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel.hpp"
#include "scenarios/shared_lan_scenario.hpp"
#include "sim/engine.hpp"

namespace {

using namespace routesync;
using namespace routesync::net;
using namespace routesync::net::elements;

PooledPacket make_packet(std::uint64_t seq, std::uint32_t bytes = 100) {
    Packet p;
    p.src = 1;
    p.dst = 2;
    p.seq = seq;
    p.size_bytes = bytes;
    return PacketPool::local().acquire(std::move(p));
}

// ---- port typing and wiring validation ---------------------------------

TEST(ElementGraph, ConnectRejectsKindMismatch) {
    sim::Engine engine;
    ElementGraph g{engine};
    g.add<FifoQueue>("q");
    g.add<CallbackSink>("sink", [](PooledPacket) {});
    // q's output 0 is pull, sink's input 0 is push: illegal.
    EXPECT_THROW(g.connect("q", 0, "sink", 0), std::invalid_argument);
}

TEST(ElementGraph, ConnectRejectsOutOfRangePorts) {
    sim::Engine engine;
    ElementGraph g{engine};
    g.add<PeriodicAgent>("a", PeriodicAgentConfig{});
    g.add<CallbackSink>("sink", [](PooledPacket) {});
    EXPECT_THROW(g.connect("a", 1, "sink", 0), std::invalid_argument);
    EXPECT_THROW(g.connect("a", 0, "sink", 3), std::invalid_argument);
    EXPECT_THROW(g.connect("a", -1, "sink", 0), std::invalid_argument);
}

TEST(ElementGraph, ConnectRejectsDoubleConnections) {
    sim::Engine engine;
    ElementGraph g{engine};
    g.add<PeriodicAgent>("a", PeriodicAgentConfig{});
    g.add<PeriodicAgent>("b", PeriodicAgentConfig{});
    g.add<CallbackSink>("sink", [](PooledPacket) {});
    g.add<CallbackSink>("sink2", [](PooledPacket) {});
    g.connect("a", 0, "sink", 0);
    // Same output again, and a second writer into the same input.
    EXPECT_THROW(g.connect("a", 0, "sink2", 0), std::invalid_argument);
    EXPECT_THROW(g.connect("b", 0, "sink", 0), std::invalid_argument);
}

TEST(ElementGraph, AddRejectsDuplicateNamesAndGetUnknownThrows) {
    sim::Engine engine;
    ElementGraph g{engine};
    g.add<FifoQueue>("q");
    EXPECT_THROW(g.add<FifoQueue>("q"), std::invalid_argument);
    EXPECT_THROW((void)g.get("nope"), std::invalid_argument);
    EXPECT_EQ(g.find("nope"), nullptr);
    EXPECT_NE(g.find("q"), nullptr);
}

TEST(ElementGraph, FinalizeCatchesDanglingPushOutput) {
    sim::Engine engine;
    ElementGraph g{engine};
    // DelayLink's "out"/"overflow" push outputs are unconnected.
    g.add<DelayLink>("tx", 1e6, sim::SimTime::millis(1));
    try {
        g.finalize();
        FAIL() << "finalize() accepted a dangling push output";
    } catch (const std::logic_error& e) {
        EXPECT_NE(std::string{e.what()}.find("tx"), std::string::npos);
    }
}

/// An element that overrides none of Element's defaults.
class Inert final : public Element {
public:
    using Element::Element;
    [[nodiscard]] const char* kind() const noexcept override { return "Inert"; }
    [[nodiscard]] std::vector<PortSpec> input_ports() const override {
        return {{PortKind::Push, "in"}};
    }
    [[nodiscard]] std::vector<PortSpec> output_ports() const override {
        return {{PortKind::Pull, "out"}};
    }
    void arm(sim::SimTime t) { schedule_timer_at(t); }
};

// The base defaults: an element that declares a port but overrides
// neither push() nor pull() throws a logic_error naming itself on
// either; one that does not opt into fast dispatch keeps its callers on
// the checked path; its timer and metrics are no-ops.
TEST(ElementGraph, BaseDefaultsRejectMisuseAndDoNothingElse) {
    sim::Engine engine;
    ElementGraph g{engine};
    auto& agent = g.add<PeriodicAgent>("a", PeriodicAgentConfig{});
    auto& inert = g.add<Inert>("inert");
    g.connect("a", 0, "inert", 0);
    g.finalize(); // Fast: Inert offers no fast ops
    for (const auto& call : {std::function<void()>{[&] { inert.push(0, make_packet(1)); }},
                             std::function<void()>{[&] { (void)inert.pull(0); }}}) {
        try {
            call();
            FAIL() << "the base default accepted a packet";
        } catch (const std::logic_error& e) {
            EXPECT_NE(std::string{e.what()}.find("Inert 'inert'"), std::string::npos)
                << e.what();
        }
    }
    // An update the agent hears counts; a port it lacks throws.
    agent.push(0, make_packet(2));
    EXPECT_THROW(agent.push(1, make_packet(3)), std::logic_error);
    inert.arm(sim::SimTime::seconds(1));
    engine.run();
    EXPECT_EQ(engine.now(), sim::SimTime::seconds(1));
    obs::MetricsRegistry reg;
    g.collect_metrics(reg, "elem");
    EXPECT_EQ(reg.counter("elem.a.updates_heard"), 1U);
    EXPECT_EQ(reg.counter("elem.a.updates_sent"), 0U);
}

TEST(ElementGraph, FinalizeAllowsEntryAndExitPorts) {
    sim::Engine engine;
    ElementGraph g{engine};
    // A lone queue: push input (entry) and pull output (exit) may dangle.
    g.add<FifoQueue>("q");
    EXPECT_NO_THROW(g.finalize());
    EXPECT_TRUE(g.finalized());
}

TEST(ElementGraph, WireParsesChainsPortsAndComments) {
    sim::Engine engine;
    ElementGraph g{engine};
    g.add<DelayLink>("tx", 1e6, sim::SimTime::millis(1));
    g.add<FifoQueue>("q");
    g.add<CallbackSink>("sink", [](PooledPacket) {});
    g.wire("// the link shape\n"
           "tx[1] -> q; q -> [1]tx\n"
           "tx -> sink");
    EXPECT_NO_THROW(g.finalize());
    auto& tx = g.get("tx");
    EXPECT_TRUE(tx.output_connected(0));
    EXPECT_TRUE(tx.output_connected(1));
    EXPECT_TRUE(tx.input_connected(1));
}

TEST(ElementGraph, WireSpecRoundTripsThroughWire) {
    sim::Engine engine;
    ElementGraph g{engine};
    g.add<DelayLink>("tx", 1e6, sim::SimTime::millis(1));
    g.add<FifoQueue>("q");
    g.add<CallbackSink>("sink", [](PooledPacket) {});
    g.wire("tx[1] -> q; q -> [1]tx; tx -> sink");
    const std::string spec = g.wire_spec();

    // Declarations: one `// name :: Kind` comment per element.
    EXPECT_NE(spec.find("// tx :: DelayLink"), std::string::npos);
    EXPECT_NE(spec.find("// q :: FifoQueue"), std::string::npos);
    EXPECT_NE(spec.find("// sink :: CallbackSink"), std::string::npos);
    // Connections in `a[p] -> [q]b` form.
    EXPECT_NE(spec.find("tx[0] -> [0]sink"), std::string::npos);
    EXPECT_NE(spec.find("tx[1] -> [0]q"), std::string::npos);
    EXPECT_NE(spec.find("q[0] -> [1]tx"), std::string::npos);

    // Round trip: wiring a fresh graph of the same elements from the
    // spec reproduces the spec exactly.
    sim::Engine engine2;
    ElementGraph g2{engine2};
    g2.add<DelayLink>("tx", 1e6, sim::SimTime::millis(1));
    g2.add<FifoQueue>("q");
    g2.add<CallbackSink>("sink", [](PooledPacket) {});
    g2.wire(spec);
    EXPECT_NO_THROW(g2.finalize());
    EXPECT_EQ(g2.wire_spec(), spec);
}

TEST(ElementGraph, OutputPeerReportsWiring) {
    sim::Engine engine;
    ElementGraph g{engine};
    auto& agent = g.add<PeriodicAgent>("a", PeriodicAgentConfig{});
    auto& sink = g.add<CallbackSink>("sink", [](PooledPacket) {});
    EXPECT_EQ(agent.output_peer(0).element, nullptr); // not wired yet
    g.connect("a", 0, "sink", 0);
    const Element::PeerView peer = agent.output_peer(0);
    EXPECT_EQ(peer.element, &sink);
    EXPECT_EQ(peer.port, 0);
    EXPECT_EQ(agent.output_peer(5).element, nullptr); // out of range
}

// Fast-path resolution caches devirtualized thunks, but introspection
// keeps reading the canonical Peer table: wire_spec() and output_peer()
// must answer identically before and after a Fast finalize, and a graph
// rebuilt from the post-finalize spec must reproduce it.
TEST(ElementGraph, IntrospectionSurvivesFastFinalize) {
    sim::Engine engine;
    ElementGraph g{engine};
    g.add<DelayLink>("tx", 1e6, sim::SimTime::millis(1));
    g.add<FifoQueue>("q");
    auto& sink = g.add<CallbackSink>("sink", [](PooledPacket) {});
    g.wire("tx[1] -> q; q -> [1]tx; tx -> sink");
    const std::string before = g.wire_spec();
    const Element::PeerView peer_before = g.get("tx").output_peer(0);

    g.finalize(DispatchMode::Fast);
    ASSERT_EQ(g.dispatch_mode(), DispatchMode::Fast);
    EXPECT_EQ(g.wire_spec(), before);
    const Element::PeerView peer_after = g.get("tx").output_peer(0);
    EXPECT_EQ(peer_after.element, peer_before.element);
    EXPECT_EQ(peer_after.element, &sink);
    EXPECT_EQ(peer_after.port, peer_before.port);

    // Round trip from the post-finalize spec.
    sim::Engine engine2;
    ElementGraph g2{engine2};
    g2.add<DelayLink>("tx", 1e6, sim::SimTime::millis(1));
    g2.add<FifoQueue>("q");
    g2.add<CallbackSink>("sink", [](PooledPacket) {});
    g2.wire(g.wire_spec());
    g2.finalize(DispatchMode::Fast);
    EXPECT_EQ(g2.wire_spec(), before);
}

TEST(ElementGraph, WireRejectsUnknownNamesAndGarbage) {
    sim::Engine engine;
    ElementGraph g{engine};
    g.add<FifoQueue>("q");
    EXPECT_THROW(g.wire("q -> ghost"), std::invalid_argument);
    EXPECT_THROW(g.wire("-> q"), std::invalid_argument);
    EXPECT_THROW(g.wire("q[x] -> q"), std::invalid_argument);
}

// ---- behaviour through a wired path ------------------------------------

TEST(ElementGraph, LinkShapeDeliversInOrderWithMetrics) {
    sim::Engine engine;
    std::vector<std::uint64_t> seqs;
    Link link{engine,
              LinkConfig{.rate_bps = 1e6, .delay = sim::SimTime::millis(1),
                         .queue_packets = 16},
              [&seqs](PooledPacket p) { seqs.push_back(p->seq); }};
    for (std::uint64_t i = 0; i < 5; ++i) {
        link.send(make_packet(i));
    }
    engine.run();
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));

    obs::MetricsRegistry reg;
    link.graph().collect_metrics(reg, "elem.link");
    // Cut-through: packet 0 never touched the queue.
    EXPECT_EQ(reg.counter("elem.link.queue.enqueued"), 4U);
    EXPECT_EQ(reg.counter("elem.link.queue.dequeued"), 4U);
    EXPECT_EQ(reg.counter("elem.link.queue.dropped"), 0U);
    EXPECT_EQ(reg.counter("elem.link.tx.transmissions"), 5U);
    EXPECT_EQ(reg.counter("elem.link.sink.delivered"), 5U);
}

// The paper's point that the discipline only matters under pressure, in
// reverse: with zero drops the two queue elements must be externally
// indistinguishable — same delivery times, same order, no RED lottery
// draws below min_th.
TEST(ElementGraph, QueueDisciplineSwapIsEquivalentAtZeroDrop) {
    auto run = [](QueueDisc disc) {
        sim::Engine engine;
        std::vector<double> deliveries;
        LinkConfig cfg;
        cfg.rate_bps = 1e6;
        cfg.delay = sim::SimTime::millis(1);
        cfg.queue_packets = 64;
        cfg.queue_disc = disc;
        cfg.red = RedTuning{/*min_th=*/50, /*max_th=*/60, /*max_p=*/0.5,
                            /*weight=*/0.5, /*seed=*/3};
        Link link{engine, cfg, [&deliveries, &engine](PooledPacket) {
                      deliveries.push_back(engine.now().sec());
                  }};
        // Three bursts of 12 packets: real queueing (depth up to 11),
        // always far below min_th = 50.
        for (int burst = 0; burst < 3; ++burst) {
            engine.schedule_at(sim::SimTime::millis(burst * 40),
                               [&link, burst] {
                                   for (std::uint64_t i = 0; i < 12; ++i) {
                                       link.send(make_packet(
                                           static_cast<std::uint64_t>(burst) *
                                               100 +
                                           i));
                                   }
                               });
        }
        engine.run();
        return deliveries;
    };
    const auto droptail = run(QueueDisc::DropTail);
    const auto red = run(QueueDisc::Red);
    EXPECT_EQ(droptail.size(), 36U);
    EXPECT_EQ(droptail, red);
}

TEST(ElementGraph, RedQueueDropsEarlyUnderPressure) {
    sim::Engine engine;
    RedQueue q{engine, "red",
               /*max_packets=*/8,
               RedTuning{/*min_th=*/2, /*max_th=*/6, /*max_p=*/0.2,
                         /*weight=*/0.5, /*seed=*/11}};
    int accepted = 0;
    for (std::uint64_t i = 0; i < 64; ++i) {
        if (q.enqueue(make_packet(i))) {
            ++accepted;
        }
    }
    EXPECT_GT(q.early_drops() + q.forced_drops(), 0U);
    EXPECT_EQ(static_cast<std::uint64_t>(64 - accepted),
              q.early_drops() + q.forced_drops());
    EXPECT_GT(q.average(), 0.0);
    EXPECT_LE(q.size(), 8U);
    EXPECT_STREQ(q.kind(), "RedQueue");
    EXPECT_EQ(q.capacity(), 8U);
    EXPECT_EQ(q.bytes(), q.size() * 100U);
}

TEST(ElementGraph, RedQueueRejectsBadTuning) {
    sim::Engine engine;
    EXPECT_THROW(RedQueue(engine, "r", 8,
                          RedTuning{/*min_th=*/6, /*max_th=*/2, /*max_p=*/0.1,
                                    /*weight=*/0.1, /*seed=*/1}),
                 std::invalid_argument);
    EXPECT_THROW(RedQueue(engine, "r", 8,
                          RedTuning{/*min_th=*/2, /*max_th=*/6, /*max_p=*/0.0,
                                    /*weight=*/0.1, /*seed=*/1}),
                 std::invalid_argument);
}

// ---- determinism -------------------------------------------------------

// The RED lottery lives in a per-queue mt19937_64, so running the same
// configs on 1 worker or 8 must produce bit-identical results (the same
// guarantee the PM sweeps advertise for --jobs).
TEST(ElementGraph, RedScenarioIsDeterministicAcrossJobs) {
    struct Counts {
        std::uint64_t delivered, drops, early, heard;
        bool operator==(const Counts&) const = default;
    };
    auto run_all = [](std::size_t jobs) {
        return parallel::map_index<Counts>(8, jobs, [](std::size_t task) {
            scenarios::SharedLanScenarioConfig cfg;
            cfg.queue_disc = QueueDisc::Red;
            cfg.max_time = sim::SimTime::seconds(120);
            cfg.seed = 1 + static_cast<std::uint64_t>(task);
            const auto r = scenarios::run_shared_lan_scenario(cfg);
            return Counts{r.frames_delivered, r.drops_queue_full,
                          r.red_early_drops, r.updates_heard};
        });
    };
    const auto serial = run_all(1);
    const auto wide = run_all(8);
    EXPECT_EQ(serial, wide);
    EXPECT_GT(serial[0].early, 0U); // the lottery genuinely ran
}

} // namespace

