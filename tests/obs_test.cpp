// Observability layer: trace sinks, the JSONL encoding, metric snapshot
// merge rules, manifests, and the cross---jobs determinism contract of
// merge_trial_metrics.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "obs/obs.hpp"
#include "obs/trace_reader.hpp"
#include "parallel/parallel.hpp"

namespace {

using namespace routesync;

obs::TraceEvent make_event(std::uint64_t seq, double t, obs::TraceEventType type,
                           int node, std::int64_t a, double b) {
    obs::TraceEvent e;
    e.seq = seq;
    e.time = sim::SimTime::seconds(t);
    e.type = type;
    e.node = node;
    e.a = a;
    e.b = b;
    return e;
}

// ------------------------------------------------------------ sinks

TEST(RingBufferSink, KeepsNewestEventsAndCountsDrops) {
    obs::RingBufferSink sink{4};
    for (int i = 0; i < 10; ++i) {
        sink.on_event(make_event(static_cast<std::uint64_t>(i), i * 1.0,
                                 obs::TraceEventType::TimerSet, i, 0, 0.0));
    }
    EXPECT_EQ(sink.capacity(), 4U);
    EXPECT_EQ(sink.events_seen(), 10U);
    EXPECT_EQ(sink.dropped(), 6U);
    ASSERT_EQ(sink.events().size(), 4U);
    // Oldest-first: seqs 6, 7, 8, 9 survive.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(sink.events()[i].seq, 6U + i);
    }
}

TEST(RingBufferSink, NoDropsBelowCapacity) {
    obs::RingBufferSink sink{8};
    for (int i = 0; i < 8; ++i) {
        sink.on_event(make_event(static_cast<std::uint64_t>(i), 0.0,
                                 obs::TraceEventType::PacketDrop, 0, 0, 0.0));
    }
    EXPECT_EQ(sink.dropped(), 0U);
    EXPECT_EQ(sink.events().size(), 8U);
}

// Byte-serial FNV-1a over an event's canonical 45-byte encoding: the
// definition HashingSink::digest() must reproduce, written out the slow
// way (every byte of every field, lowest byte first).
std::uint64_t serial_fnv_fold(std::uint64_t h, const obs::TraceEvent& e) {
    const auto fold = [&h](std::uint64_t word, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (word >> (8 * i)) & 0xffU;
            h *= 1099511628211ULL;
        }
    };
    fold(e.seq, 8);
    fold(std::bit_cast<std::uint64_t>(e.time.sec()), 8);
    fold(static_cast<std::uint64_t>(e.type), 1);
    fold(static_cast<std::uint32_t>(e.node), 4);
    fold(static_cast<std::uint64_t>(e.a), 8);
    fold(std::bit_cast<std::uint64_t>(e.b), 8);
    fold(std::bit_cast<std::uint64_t>(e.x), 8);
    return h;
}

constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
constexpr int kTraceEventTypes =
    static_cast<int>(obs::TraceEventType::CouplingEdge) + 1;

/// A random word with about half its bytes zeroed, so zero runs start
/// and end at every byte position and span field boundaries.
std::uint64_t sparse_word(std::mt19937_64& gen) {
    std::uint64_t w = gen();
    const std::uint64_t keep = gen();
    for (int i = 0; i < 8; ++i) {
        if (((keep >> i) & 1U) == 0) {
            w &= ~(0xffULL << (8 * i));
        }
    }
    return w;
}

double special_or_sparse_double(std::mt19937_64& gen) {
    constexpr double kSpecial[] = {
        0.0, -0.0, 1.0, -2.5, 121.11, 1e-310, -1e-310,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::max()};
    const std::uint64_t pick = gen() % 16;
    if (pick < std::size(kSpecial)) {
        return kSpecial[pick];
    }
    return std::bit_cast<double>(sparse_word(gen));
}

obs::TraceEvent random_event(std::mt19937_64& gen, std::uint64_t i) {
    obs::TraceEvent e;
    // Small counters, and seq >= 2^56 (bit 56..63 forced on).
    e.seq = i % 3 == 0 ? i : sparse_word(gen) | (1ULL << 56 << (gen() % 8));
    // A full-mantissa simulation time in [0, 1e4) or an edge value.
    const double uniform = std::ldexp(static_cast<double>(gen() >> 11), -53);
    e.time = sim::SimTime::seconds(i % 2 == 0 ? 1e4 * uniform
                                              : special_or_sparse_double(gen));
    e.type = static_cast<obs::TraceEventType>(gen() % kTraceEventTypes);
    e.node = gen() % 4 == 0 ? -1 : static_cast<std::int32_t>(sparse_word(gen));
    e.a = static_cast<std::int64_t>(sparse_word(gen));
    e.b = special_or_sparse_double(gen);
    e.x = special_or_sparse_double(gen);
    return e;
}

TEST(HashingSink, MatchesByteSerialFnv1aReference) {
    obs::HashingSink sink;
    EXPECT_EQ(sink.digest(), kFnvOffsetBasis);
    std::mt19937_64 gen{20260417};
    std::uint64_t expect = kFnvOffsetBasis;
    for (std::uint64_t i = 0; i < 10000; ++i) {
        const obs::TraceEvent e = random_event(gen, i);
        sink.on_event(e);
        expect = serial_fnv_fold(expect, e);
        ASSERT_EQ(sink.digest(), expect) << "event " << i << ": "
                                         << obs::trace_event_jsonl(e);
    }
    EXPECT_EQ(sink.events_seen(), 10000U);
}

// Sixteen fixed events, one per TraceEventType, covering the encodings a
// zero-run fold can get wrong: all-zero and all-ones fields, node -1,
// negative a, seq >= 2^56, +-0.0, +-inf, NaN and subnormal scalars. The
// digest is frozen, so a change to both the sink and the reference
// above still fails here.
TEST(HashingSink, GoldenDigestOfFixedTrace) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double sub = std::numeric_limits<double>::denorm_min();
    const obs::TraceEvent events[] = {
        {0, sim::SimTime::zero(), obs::TraceEventType::TimerSet, 0, 0, 0.0, 0.0},
        {1, sim::SimTime::seconds(121.11), obs::TraceEventType::TimerFire, 19, 1, 121.11, 0.0},
        {2, sim::SimTime::seconds(-0.0), obs::TraceEventType::TimerReset, -1, -1, -0.0, -0.0},
        {3, sim::SimTime::seconds(1e-300), obs::TraceEventType::PacketEnqueue, 7, 1LL << 40, 64.0, 0.5},
        {0x0100000000000000ULL, sim::SimTime::seconds(2.0), obs::TraceEventType::PacketDrop, 2147483647, -4096, 1500.0, sub},
        {0xffffffffffffffffULL, sim::SimTime::seconds(3.0), obs::TraceEventType::PacketDeliver, -2147483647 - 1, std::numeric_limits<std::int64_t>::min(), inf, -inf},
        {6, sim::SimTime::infinity(), obs::TraceEventType::UpdateTx, 3, 25, 1.0, nan},
        {7, sim::SimTime::seconds(1e5), obs::TraceEventType::UpdateRx, 4, 25, 3.0, 0.0},
        {8, sim::SimTime::seconds(12345.678), obs::TraceEventType::CpuBusyBegin, 5, 0, 0.11, 0.0},
        {9, sim::SimTime::seconds(12345.789), obs::TraceEventType::CpuBusyEnd, 5, 0, 0.0, 0.0},
        {10, sim::SimTime::seconds(1e-6), obs::TraceEventType::ClusterChange, -1, 20, -sub, 0.0},
        {11, sim::SimTime::seconds(0.25), obs::TraceEventType::MetricSample, 255, 256, 1e-310, 0.3},
        {0x00ff000000000000ULL, sim::SimTime::seconds(4e9), obs::TraceEventType::ResourceSample, 65536, 65535, 4096.0, 8192.0},
        {13, sim::SimTime::zero(), obs::TraceEventType::SyncConfig, -1, 20000, 121.105, 0.95},
        {14, sim::SimTime::seconds(8765.4321), obs::TraceEventType::SyncTransition, -1, 1, 0.9734, 0.95},
        {15, sim::SimTime::seconds(1e5), obs::TraceEventType::CouplingEdge, 11, 12, 907.0, 0.0},
    };
    obs::HashingSink sink;
    std::uint64_t expect = kFnvOffsetBasis;
    for (const obs::TraceEvent& e : events) {
        sink.on_event(e);
        expect = serial_fnv_fold(expect, e);
    }
    EXPECT_EQ(sink.digest(), expect);
    EXPECT_EQ(sink.digest(), 0x56b67ff252ef8be9ULL);
}

TEST(TraceEventJsonl, EncodesEveryField) {
    const auto e = make_event(7, 1.5, obs::TraceEventType::PacketDeliver, 3, 42, 1500.0);
    EXPECT_EQ(obs::trace_event_jsonl(e),
              "{\"seq\": 7, \"t\": 1.5, \"type\": \"packet_deliver\", "
              "\"node\": 3, \"a\": 42, \"b\": 1500, \"x\": 0}");
}

TEST(TraceEventJsonl, RoundTripsDoublesAtFullPrecision) {
    const double b = 69.421511837985378;
    const auto e = make_event(0, 0.1, obs::TraceEventType::TimerSet, 0, 0, b);
    const std::string line = obs::trace_event_jsonl(e);
    // %.17g is shortest-round-trip-safe: parsing the text recovers the bits.
    const auto pos = line.find("\"b\": ");
    ASSERT_NE(pos, std::string::npos);
    EXPECT_EQ(std::stod(line.substr(pos + 5)), b);
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
    EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::json_escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(obs::json_escape(std::string{"a\x01z"}), "a\\u0001z");
}

TEST(JsonlFileSink, WritesOneValidLinePerEvent) {
    const std::string path = ::testing::TempDir() + "obs_jsonl_sink_test.jsonl";
    {
        obs::JsonlFileSink sink{path};
        sink.on_event(make_event(0, 0.25, obs::TraceEventType::TimerSet, 1, 0, 9.5));
        sink.on_event(make_event(1, 0.5, obs::TraceEventType::UpdateTx, 2, 20, 1.0));
        sink.flush();
        EXPECT_EQ(sink.events_seen(), 2U);
    }
    std::ifstream in{path};
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) {
        lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 2U);
    EXPECT_EQ(lines[0],
              "{\"seq\": 0, \"t\": 0.25, \"type\": \"timer_set\", "
              "\"node\": 1, \"a\": 0, \"b\": 9.5, \"x\": 0}");
    EXPECT_EQ(lines[1], obs::trace_event_jsonl(
                            make_event(1, 0.5, obs::TraceEventType::UpdateTx, 2, 20, 1.0)));
    EXPECT_EQ(obs::TraceReader::read_all(path).size(), 2U);
    std::remove(path.c_str());
}

// ------------------------------------------------------- metric merges

TEST(MetricsSnapshot, CountersSumAndGaugesLastWriterWins) {
    obs::MetricsRegistry a;
    a.add("pkts", 3);
    a.set_gauge("end_time", 10.0);
    obs::MetricsRegistry b;
    b.add("pkts", 4);
    b.add("drops", 1);
    b.set_gauge("end_time", 20.0);

    obs::MetricsSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.counters.at("pkts"), 7U);
    EXPECT_EQ(merged.counters.at("drops"), 1U);
    EXPECT_EQ(merged.gauges.at("end_time"), 20.0);
}

TEST(MetricsSnapshot, DistributionsWelfordMerge) {
    obs::MetricsRegistry a;
    obs::MetricsRegistry b;
    obs::MetricsRegistry whole;
    const std::vector<double> xs{1.0, 2.0, 3.0, 10.0, 20.0, 30.0};
    for (std::size_t i = 0; i < xs.size(); ++i) {
        (i < 3 ? a : b).observe("x", xs[i]);
        whole.observe("x", xs[i]);
    }
    obs::MetricsSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    const auto& m = merged.distributions.at("x");
    const obs::MetricsSnapshot whole_snapshot = whole.snapshot();
    const auto& w = whole_snapshot.distributions.at("x");
    EXPECT_EQ(m.count(), w.count());
    EXPECT_DOUBLE_EQ(m.mean(), w.mean());
    EXPECT_NEAR(m.variance(), w.variance(), 1e-9);
    EXPECT_EQ(m.min(), w.min());
    EXPECT_EQ(m.max(), w.max());
}

TEST(MetricsSnapshot, MergeIsAFunctionOfSnapshotSequenceOnly) {
    // Folding the same parts with merge() in the same order gives the
    // same snapshot, independent of who produced the parts.
    std::vector<obs::MetricsSnapshot> parts;
    for (int i = 0; i < 4; ++i) {
        obs::MetricsRegistry r;
        r.add("n", static_cast<std::uint64_t>(i + 1));
        r.observe("t", i * 1.5);
        parts.push_back(r.snapshot());
    }
    const auto fold = [&parts] {
        obs::MetricsSnapshot merged;
        for (const obs::MetricsSnapshot& part : parts) {
            merged.merge(part);
        }
        return merged;
    };
    const obs::MetricsSnapshot once = fold();
    const obs::MetricsSnapshot again = fold();
    EXPECT_TRUE(once == again);
    EXPECT_EQ(once.counters.at("n"), 10U);
}

// --------------------------------------- cross-jobs trial determinism

std::vector<core::ExperimentConfig> small_sweep() {
    std::vector<core::ExperimentConfig> configs;
    for (int i = 0; i < 8; ++i) {
        core::ExperimentConfig cfg;
        cfg.params.n = 10;
        cfg.params.tp = sim::SimTime::seconds(121);
        cfg.params.tc = sim::SimTime::seconds(0.11);
        cfg.params.tr = sim::SimTime::seconds(0.1);
        cfg.params.seed = parallel::derive_seed(42, static_cast<std::uint64_t>(i));
        cfg.max_time = sim::SimTime::seconds(5000);
        configs.push_back(cfg);
    }
    return configs;
}

TEST(TrialMetrics, MergedSnapshotIdenticalForJobs1And8) {
    const auto configs = small_sweep();
    parallel::SweepScheduler serial{{.jobs = 1}};
    parallel::SweepScheduler wide{{.jobs = 8}};
    const auto r1 = serial.run_all(configs);
    const auto r8 = wide.run_all(configs);
    const obs::MetricsSnapshot m1 = parallel::merge_trial_metrics(r1);
    const obs::MetricsSnapshot m8 = parallel::merge_trial_metrics(r8);
    EXPECT_TRUE(m1 == m8);
    EXPECT_EQ(m1.to_json(), m8.to_json());
    // And the merge actually saw every trial.
    EXPECT_EQ(m1.counters.at("experiment.rounds_closed") > 0, true);
}

TEST(TrialMetrics, SharedRunContextIsNotHandedToWorkerThreads) {
    // config.obs is per-run state; the scheduler must strip it from the
    // copies it hands to workers (the caller merges via result.metrics).
    obs::RunContext ctx;
    auto configs = small_sweep();
    for (auto& cfg : configs) {
        cfg.obs = &ctx;
    }
    parallel::SweepScheduler wide{{.jobs = 4}};
    const auto results = wide.run_all(configs);
    ASSERT_EQ(results.size(), configs.size());
    // The shared context saw none of the trials' merges...
    obs::MetricsRegistry empty;
    EXPECT_TRUE(ctx.metrics().snapshot() == empty.snapshot());
    // ...but every result still carries its own snapshot.
    for (const auto& r : results) {
        EXPECT_GT(r.metrics.counters.at("experiment.transmissions"), 0U);
    }
}

// ------------------------------------------------------------ manifest

TEST(Manifest, WritesParsableJsonWithConfigAndMetrics) {
    obs::RunContext ctx;
    ctx.metrics().add("demo.count", 5);
    obs::Manifest& m = ctx.manifest();
    m.tool = "obs_test";
    m.description = "manifest \"quoted\" description";
    m.seeds = {1, 2};
    m.jobs = 4;
    m.set_config("n", 20);
    const std::string path = ::testing::TempDir() + "obs_manifest_test.json";
    ctx.write_manifest(path, 123.5);

    std::ifstream in{path};
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    EXPECT_NE(text.find("\"tool\": \"obs_test\""), std::string::npos);
    EXPECT_NE(text.find("manifest \\\"quoted\\\" description"), std::string::npos);
    EXPECT_NE(text.find("\"demo.count\": 5"), std::string::npos);
    EXPECT_NE(text.find("\"sim_seconds\": 123.5"), std::string::npos);
    EXPECT_NE(text.find("\"n\": \"20\""), std::string::npos);
    std::remove(path.c_str());
    EXPECT_THROW(ctx.write_manifest(::testing::TempDir() + "no-such-dir/m.json", 0.0),
                 std::runtime_error);
}

TEST(Manifest, Fnv1aMatchesRepoConvention) {
    // The repo-wide FNV-1a variant (same basis determinism_test and the
    // figure tools use). Frozen so manifests stay comparable across
    // builds.
    EXPECT_EQ(obs::fnv1a(""), 1469598103934665603ULL);
    std::uint64_t h = 1469598103934665603ULL;
    h ^= static_cast<unsigned char>('a');
    h *= 1099511628211ULL;
    EXPECT_EQ(obs::fnv1a("a"), h);
}

// --------------------------------------------------- engine attachment

// A ring-buffer trace has no file: the sealed manifest records what the
// ring dropped and no digest.
TEST(RunContext, RingTraceSealsWithItsDropsAndNoFileDigest) {
    obs::RunContext ctx;
    ctx.trace_to_ring(16);
    core::ExperimentConfig cfg;
    cfg.params.n = 5;
    cfg.params.seed = 7;
    cfg.max_time = sim::SimTime::seconds(2000);
    cfg.obs = &ctx;
    const auto r = core::run_experiment(cfg);
    ctx.finish(r.end_time_sec);

    const auto* ring = dynamic_cast<obs::RingBufferSink*>(ctx.sink());
    ASSERT_NE(ring, nullptr);
    ASSERT_TRUE(ctx.manifest().trace.has_value());
    EXPECT_GT(ring->dropped(), 0U);
    EXPECT_EQ(ctx.manifest().trace->dropped, ring->dropped());
    EXPECT_FALSE(ctx.manifest().trace->fnv1a.has_value());
    EXPECT_NE(ctx.manifest().to_json().find("\"fnv1a\": null"), std::string::npos);
}

TEST(RunContext, AttachedTracerSeesModelEventsInSeqOrder) {
    obs::RunContext ctx;
    ctx.trace_to_ring(4096);
    core::ExperimentConfig cfg;
    cfg.params.n = 5;
    cfg.params.seed = 7;
    cfg.max_time = sim::SimTime::seconds(2000);
    cfg.obs = &ctx;
    const auto r = core::run_experiment(cfg);
    EXPECT_GT(r.total_transmissions, 0U);

    const auto* ring = dynamic_cast<obs::RingBufferSink*>(ctx.sink());
    ASSERT_NE(ring, nullptr);
    ASSERT_FALSE(ring->events().empty());
    std::uint64_t last_seq = 0;
    bool saw_timer_set = false;
    bool saw_update_tx = false;
    for (const auto& e : ring->events()) {
        EXPECT_GE(e.seq, last_seq);
        last_seq = e.seq;
        saw_timer_set |= e.type == obs::TraceEventType::TimerSet;
        saw_update_tx |= e.type == obs::TraceEventType::UpdateTx;
    }
    EXPECT_TRUE(saw_timer_set);
    EXPECT_TRUE(saw_update_tx);
}

} // namespace
