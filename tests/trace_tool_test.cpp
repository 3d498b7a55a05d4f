// The introspection toolchain: TraceReader (JSONL parsing + round-trip),
// trace analysis (summarize / filter / export-chrome), cluster-series
// replay from a real traced run, the ResourceSampler's tick contract, and
// the profiler's cross---jobs determinism (labels + counts, never times).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "core/trace_replay.hpp"
#include "obs/obs.hpp"
#include "obs/resource_sampler.hpp"
#include "obs/trace_analysis.hpp"
#include "obs/trace_reader.hpp"
#include "parallel/parallel.hpp"
#include "sim/sim.hpp"

namespace {

using namespace routesync;

obs::TraceEvent make_event(std::uint64_t seq, double t, obs::TraceEventType type,
                           int node, std::int64_t a, double b, double x = 0.0) {
    obs::TraceEvent e;
    e.seq = seq;
    e.time = sim::SimTime::seconds(t);
    e.type = type;
    e.node = node;
    e.a = a;
    e.b = b;
    e.x = x;
    return e;
}

// ----------------------------------------------------------- type names

TEST(TraceEventTypeFromName, RoundTripsEveryType) {
    for (int i = 0; i <= static_cast<int>(obs::TraceEventType::ResourceSample);
         ++i) {
        const auto type = static_cast<obs::TraceEventType>(i);
        const auto back = obs::trace_event_type_from_name(
            obs::trace_event_name(type));
        ASSERT_TRUE(back.has_value()) << obs::trace_event_name(type);
        EXPECT_EQ(*back, type);
    }
    EXPECT_FALSE(obs::trace_event_type_from_name("no_such_event").has_value());
    EXPECT_FALSE(obs::trace_event_type_from_name("").has_value());
}

// ---------------------------------------------------------- parse_line

TEST(TraceReader, ParsesTheCanonicalEncoding) {
    const auto e = obs::TraceReader::parse_line(
        "{\"seq\": 7, \"t\": 1.5, \"type\": \"packet_deliver\", "
        "\"node\": 3, \"a\": 42, \"b\": 2.5, \"x\": 0}");
    EXPECT_EQ(e.seq, 7U);
    EXPECT_EQ(e.time.sec(), 1.5);
    EXPECT_EQ(e.type, obs::TraceEventType::PacketDeliver);
    EXPECT_EQ(e.node, 3);
    EXPECT_EQ(e.a, 42);
    EXPECT_EQ(e.b, 2.5);
    EXPECT_EQ(e.x, 0.0);
}

TEST(TraceReader, ToleratesFieldOrderAndWhitespace) {
    const auto e = obs::TraceReader::parse_line(
        "{ \"x\":1.5,\"b\":-2.5 , \"type\":\"resource_sample\", "
        "\"node\":-1, \"a\":0, \"t\":9, \"seq\":0 }");
    EXPECT_EQ(e.type, obs::TraceEventType::ResourceSample);
    EXPECT_EQ(e.node, -1);
    EXPECT_EQ(e.time.sec(), 9.0);
    EXPECT_EQ(e.b, -2.5);
    EXPECT_EQ(e.x, 1.5);
}

TEST(TraceReader, RejectsMalformedLines) {
    const std::string good =
        "{\"seq\": 0, \"t\": 1, \"type\": \"timer_set\", "
        "\"node\": 0, \"a\": 0, \"b\": 90, \"x\": 0}";
    EXPECT_NO_THROW((void)obs::TraceReader::parse_line(good));
    const std::vector<std::string> bad{
        "",                                          // empty
        "not json",                                  // no object
        "{\"seq\": 0}",                              // missing fields
        "{\"seq\": 0, \"t\": 1, \"type\": \"nope\", "
        "\"node\": 0, \"a\": 0, \"b\": 0, \"x\": 0}", // unknown type name
        "{\"seq\": 0.5, \"t\": 1, \"type\": \"timer_set\", "
        "\"node\": 0, \"a\": 0, \"b\": 0, \"x\": 0}", // non-integer seq
        "{\"seq\": -1, \"t\": 1, \"type\": \"timer_set\", "
        "\"node\": 0, \"a\": 0, \"b\": 0, \"x\": 0}", // negative seq
        "{\"seq\": 0, \"t\": 1, \"type\": \"timer_set\", "
        "\"node\": 0, \"a\": 0, \"b\": 0, \"x\": 0, \"y\": 1}", // unknown field
        "{\"seq\": 0, \"seq\": 1, \"t\": 1, \"type\": \"timer_set\", "
        "\"node\": 0, \"a\": 0, \"b\": 0, \"x\": 0}", // duplicate field
        good + " trailing",                           // trailing content
    };
    for (const auto& line : bad) {
        EXPECT_THROW((void)obs::TraceReader::parse_line(line),
                     std::runtime_error)
            << line;
    }
}

// The interchange contract: a file written by JsonlFileSink, read back and
// re-serialized through trace_event_jsonl(), reproduces the input bytes.
TEST(TraceReader, RoundTripsAFileByteIdentically) {
    const std::string path = ::testing::TempDir() + "trace_reader_rt.jsonl";
    std::vector<obs::TraceEvent> written;
    written.push_back(make_event(0, 0.25, obs::TraceEventType::TimerSet, 1, 0, 90.5));
    written.push_back(make_event(1, 1.0 / 3.0, obs::TraceEventType::UpdateTx, 2, 300, 1.0));
    written.push_back(
        make_event(2, 69.421511837985378, obs::TraceEventType::MetricSample,
                   -1, 4, 0.125, 0.11));
    written.push_back(
        make_event(3, 100.0, obs::TraceEventType::ResourceSample, -1, 2, 17.0, 64.0));
    {
        obs::JsonlFileSink sink{path};
        for (const auto& e : written) {
            sink.on_event(e);
        }
    }
    std::ifstream in{path};
    std::string original((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());

    const auto events = obs::TraceReader::read_all(path);
    ASSERT_EQ(events.size(), written.size());
    std::string reserialized;
    for (const auto& e : events) {
        reserialized += obs::trace_event_jsonl(e);
        reserialized += '\n';
    }
    EXPECT_EQ(reserialized, original);
    std::remove(path.c_str());
}

TEST(TraceReader, ReadAllReportsTheOffendingLine) {
    const std::string path = ::testing::TempDir() + "trace_reader_bad.jsonl";
    {
        std::ofstream out{path};
        out << "{\"seq\": 0, \"t\": 1, \"type\": \"timer_set\", "
               "\"node\": 0, \"a\": 0, \"b\": 0, \"x\": 0}\n";
        out << "garbage\n";
    }
    try {
        (void)obs::TraceReader::read_all(path);
        FAIL() << "expected a parse error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string{e.what()}.find(":2:"), std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

// ------------------------------------------------------------ summarize

std::vector<obs::TraceEvent> analysis_fixture() {
    std::vector<obs::TraceEvent> events;
    std::uint64_t seq = 0;
    // Two nodes transmitting at phases 10 and 60 of a 100 s round.
    for (int round = 0; round < 3; ++round) {
        const double base = 100.0 * round;
        events.push_back(make_event(seq++, base + 10.0,
                                    obs::TraceEventType::UpdateTx, 0, 30, 0.0));
        events.push_back(make_event(seq++, base + 20.0,
                                    obs::TraceEventType::CpuBusyBegin, 1, 0, 0.3));
        events.push_back(make_event(seq++, base + 20.5,
                                    obs::TraceEventType::CpuBusyEnd, 1, 0, 0.0));
        events.push_back(make_event(seq++, base + 60.0,
                                    obs::TraceEventType::UpdateTx, 1, 30, 0.0));
    }
    // One busy period left open at trace end.
    events.push_back(make_event(seq++, 290.0,
                                obs::TraceEventType::CpuBusyBegin, 0, 0, 1.0));
    return events;
}

TEST(TraceAnalysis, SummarizeCountsTypesNodesPhasesAndBusyPeriods) {
    const auto events = analysis_fixture();
    obs::SummaryOptions options;
    options.round_length = 100.0;
    options.phase_bins = 10;
    const auto s = obs::summarize(events, options);
    EXPECT_EQ(s.events, events.size());
    EXPECT_EQ(s.t_min, 10.0);
    EXPECT_EQ(s.t_max, 290.0);
    EXPECT_EQ(s.by_type.at("update_tx"), 6U);
    EXPECT_EQ(s.by_type.at("cpu_busy_begin"), 4U);
    EXPECT_EQ(s.tx_by_node.at(0), 3U);
    EXPECT_EQ(s.tx_by_node.at(1), 3U);
    ASSERT_EQ(s.tx_phase_hist.size(), 10U);
    EXPECT_EQ(s.tx_phase_hist[1], 3U); // phase 10 of 100 -> bin 1
    EXPECT_EQ(s.tx_phase_hist[6], 3U); // phase 60 of 100 -> bin 6
    EXPECT_EQ(s.busy_periods, 3U);
    EXPECT_NEAR(s.busy_total_sec, 1.5, 1e-12);
    EXPECT_NEAR(s.busy_max_sec, 0.5, 1e-12);
    EXPECT_EQ(s.busy_unclosed, 1U);

    const std::string report = obs::format_summary(s);
    EXPECT_NE(report.find("update_tx"), std::string::npos);
    EXPECT_NE(report.find("node 1"), std::string::npos);
}

TEST(TraceAnalysis, FilterSelectsByTypeNodeAndWindow) {
    const auto events = analysis_fixture();
    obs::FilterOptions by_type;
    by_type.types = {obs::TraceEventType::UpdateTx};
    EXPECT_EQ(obs::filter_events(events, by_type).size(), 6U);

    obs::FilterOptions by_node;
    by_node.node = 1;
    EXPECT_EQ(obs::filter_events(events, by_node).size(), 9U);

    obs::FilterOptions window;
    window.t_min = 100.0;
    window.t_max = 200.0;
    const auto in_window = obs::filter_events(events, window);
    ASSERT_EQ(in_window.size(), 4U);
    for (const auto& e : in_window) {
        EXPECT_GE(e.time.sec(), 100.0);
        EXPECT_LE(e.time.sec(), 200.0);
    }

    EXPECT_EQ(obs::filter_events(events, obs::FilterOptions{}).size(),
              events.size());
}

TEST(TraceAnalysis, ExportChromeEmitsSlicesCountersAndMetadata) {
    auto events = analysis_fixture();
    events.push_back(make_event(events.size(), 300.0,
                                obs::TraceEventType::ResourceSample, -1, 0,
                                12.0, 64.0));
    const std::string json = obs::export_chrome(events);
    EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0U);
    EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
    // cpu busy -> B/E duration slices; resource samples -> counters;
    // everything else -> instants; one thread_name metadata row per track.
    EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"global\""), std::string::npos);
    // ts is microseconds: t = 10 s -> 10000000.
    EXPECT_NE(json.find("\"ts\": 10000000"), std::string::npos);
}

// --------------------------------------------------------------- replay

TEST(TraceReplay, FormatAndDiffClusterSeries) {
    const std::vector<core::ClusterEvent> a{
        {sim::SimTime::seconds(1.5), 1}, {sim::SimTime::seconds(2.25), 2}};
    const std::vector<core::ClusterEvent> b{
        {sim::SimTime::seconds(1.5), 1}, {sim::SimTime::seconds(2.25), 3}};
    EXPECT_EQ(core::format_cluster_series(a), "1.5 1\n2.25 2\n");
    EXPECT_EQ(core::diff_cluster_series(a, a), "");
    EXPECT_NE(core::diff_cluster_series(a, b), "");
    EXPECT_NE(core::diff_cluster_series(a, {a[0]}), "");
}

TEST(TraceReplay, ThrowsOnATraceWithNoTimerSets) {
    const std::vector<obs::TraceEvent> events{
        make_event(0, 1.0, obs::TraceEventType::UpdateTx, 0, 1, 0.0)};
    EXPECT_THROW((void)core::replay_cluster_series(events), std::runtime_error);
}

// End to end on a real run: trace a small Periodic Messages experiment,
// read the file back, and recompute the cluster-size series from the
// timer_set stream alone. It must match both the recorded cluster_change
// events and the live run's first_hit_up series.
TEST(TraceReplay, ReproducesALiveRunsClusterSeries) {
    const std::string path = ::testing::TempDir() + "trace_replay_run.jsonl";
    core::ExperimentConfig cfg;
    cfg.params.n = 10;
    cfg.params.tp = sim::SimTime::seconds(121);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.tr = sim::SimTime::seconds(0.1);
    cfg.params.seed = 42;
    cfg.max_time = sim::SimTime::seconds(20000);
    core::ExperimentResult result;
    {
        obs::RunContext ctx;
        ctx.trace_to_file(path);
        cfg.obs = &ctx;
        result = core::run_experiment(cfg);
    }

    const auto events = obs::TraceReader::read_all(path);
    const auto replay = core::replay_cluster_series(events);
    EXPECT_EQ(replay.n, cfg.params.n);
    EXPECT_EQ(replay.initial_skipped, static_cast<std::uint64_t>(cfg.params.n));
    EXPECT_FALSE(replay.replayed.empty());
    EXPECT_EQ(core::diff_cluster_series(replay.replayed, replay.recorded), "");

    std::vector<core::ClusterEvent> live;
    for (int s = 1; s < static_cast<int>(result.first_hit_up.size()); ++s) {
        if (result.first_hit_up[static_cast<std::size_t>(s)].has_value()) {
            live.push_back(core::ClusterEvent{
                sim::SimTime::seconds(
                    *result.first_hit_up[static_cast<std::size_t>(s)]),
                s});
        }
    }
    EXPECT_EQ(core::diff_cluster_series(replay.replayed, live), "");
    std::remove(path.c_str());
}

// ------------------------------------------------------ resource sampler

TEST(ResourceSampler, TicksAtTheConfiguredCadenceAndEmitsSamples) {
    sim::Engine engine;
    obs::RunContext ctx;
    ctx.trace_to_ring(4096);
    ctx.attach(engine);
    obs::ResourceSampler sampler{engine, ctx, sim::SimTime::seconds(1.0)};
    double level = 0.0;
    const int index = sampler.add_source("test.level", 2, [&level] {
        level += 1.0;
        return obs::ResourceSampler::Sample{level, 8.0};
    });
    sampler.watch_engine_queue();
    sampler.start();
    engine.run_until(sim::SimTime::seconds(10.0));

    EXPECT_EQ(sampler.ticks(), 10U);
    EXPECT_EQ(sampler.sources(), 4U); // test.level + 3 engine-queue sources

    const auto* ring = dynamic_cast<obs::RingBufferSink*>(ctx.sink());
    ASSERT_NE(ring, nullptr);
    std::uint64_t samples_from_probe = 0;
    for (const auto& e : ring->events()) {
        if (e.type == obs::TraceEventType::ResourceSample && e.a == index) {
            ++samples_from_probe;
            EXPECT_EQ(e.node, 2);
            EXPECT_EQ(e.x, 8.0);
        }
    }
    EXPECT_EQ(samples_from_probe, 10U);
    // The index -> name mapping lands in the gauges.
    const auto snap = ctx.metrics().snapshot();
    EXPECT_EQ(snap.gauges.at("rs.test.level"), 10.0);
    EXPECT_EQ(snap.gauges.at("rs.test.level.cap"), 8.0);
    EXPECT_EQ(snap.counters.at("sampler.ticks"), 10U);
}

TEST(ResourceSampler, OffByDefaultProducesNoSampleEvents) {
    const std::string path = ::testing::TempDir() + "sampler_off.jsonl";
    core::ExperimentConfig cfg;
    cfg.params.n = 5;
    cfg.params.seed = 7;
    cfg.max_time = sim::SimTime::seconds(2000);
    {
        obs::RunContext ctx;
        ctx.trace_to_file(path);
        cfg.obs = &ctx;
        (void)core::run_experiment(cfg); // sample_every defaults to 0 = off
    }
    for (const auto& e : obs::TraceReader::read_all(path)) {
        EXPECT_NE(e.type, obs::TraceEventType::ResourceSample);
    }
    std::remove(path.c_str());
}

TEST(ResourceSampler, SamplesThePmKernelOnTheFastPath) {
    // Explicit FastKernel backend + a cadence: the sampler ticks on the
    // kernel's own hook events (no generic engine anywhere) and reports
    // the kernel-side gauges. Sampling must not change simulation
    // results, so the run is compared against an unsampled twin.
    core::ExperimentConfig cfg;
    cfg.params.n = 10;
    cfg.params.seed = 424242;
    cfg.max_time = sim::SimTime::seconds(2000);
    cfg.backend = core::ExperimentBackend::FastKernel;
    const auto plain = core::run_experiment(cfg);

    obs::RunContext ctx;
    ctx.trace_to_ring(1 << 16);
    cfg.obs = &ctx;
    cfg.sample_every = 100.0;
    const auto sampled = core::run_experiment(cfg);

    EXPECT_EQ(sampled.total_transmissions, plain.total_transmissions);
    EXPECT_EQ(sampled.rounds_closed, plain.rounds_closed);
    EXPECT_EQ(sampled.end_time_sec, plain.end_time_sec);
    // Hook events count like any other kernel event.
    EXPECT_GT(sampled.events_processed, plain.events_processed);
    EXPECT_GT(sampled.kernel_state_bytes, 0U);

    const auto* ring = dynamic_cast<obs::RingBufferSink*>(ctx.sink());
    ASSERT_NE(ring, nullptr);
    std::uint64_t samples = 0;
    for (const auto& e : ring->events()) {
        if (e.type == obs::TraceEventType::ResourceSample) {
            ++samples;
        }
    }
    // ~20 ticks x 2 sources (state bytes + live queue depth).
    EXPECT_GE(samples, 2U * 15U);
    const auto snap = ctx.metrics().snapshot();
    ASSERT_TRUE(snap.gauges.contains("rs.pm_kernel.state_bytes"));
    EXPECT_GT(snap.gauges.at("rs.pm_kernel.state_bytes"), 0.0);
    ASSERT_TRUE(snap.gauges.contains("rs.pm_kernel.queue.live"));
    EXPECT_GT(snap.gauges.at("rs.pm_kernel.queue.live"), 0.0);
    EXPECT_GT(snap.counters.at("sampler.ticks"), 0U);
}

TEST(ResourceSampler, EngineFreeConstructorRequiresHooksAndNoEngineWatch) {
    obs::RunContext ctx;
    EXPECT_THROW((obs::ResourceSampler{nullptr, [] { return sim::SimTime::zero(); },
                                       ctx, sim::SimTime::seconds(1.0)}),
                 std::invalid_argument);
    obs::ResourceSampler sampler{
        [](sim::SimTime, std::function<void()>) {},
        [] { return sim::SimTime::zero(); }, ctx, sim::SimTime::seconds(1.0)};
    EXPECT_THROW(sampler.watch_engine_queue(), std::logic_error);
}

TEST(ResourceSampler, StopCancelsFutureTicks) {
    sim::Engine engine;
    obs::RunContext ctx;
    ctx.attach(engine);
    obs::ResourceSampler sampler{engine, ctx, sim::SimTime::seconds(1.0)};
    sampler.add_source("x", -1,
                       [] { return obs::ResourceSampler::Sample{1.0, 0.0}; });
    sampler.start();
    engine.run_until(sim::SimTime::seconds(3.5));
    EXPECT_EQ(sampler.ticks(), 3U);
    sampler.stop();
    engine.run_until(sim::SimTime::seconds(10.0));
    EXPECT_EQ(sampler.ticks(), 3U);
}

TEST(ResourceSampler, RejectsNonPositiveCadence) {
    sim::Engine engine;
    obs::RunContext ctx;
    EXPECT_THROW(
        (obs::ResourceSampler{engine, ctx, sim::SimTime::zero()}),
        std::invalid_argument);
}

// -------------------------------------------------------------- profiler

TEST(Profiler, ScopesAreNoOpsWithNoProfilerInstalled) {
    ASSERT_EQ(obs::Profiler::current(), nullptr);
    {
        OBS_PROF_SCOPE("noop.scope");
    }
    // Still nothing installed, nothing recorded anywhere to observe —
    // the point is simply that the disabled path is safe and branch-only.
    EXPECT_EQ(obs::Profiler::current(), nullptr);
}

TEST(Profiler, RecordsCountsTotalsAndMaxPerLabel) {
    obs::Profiler profiler;
    obs::ScopedProfilerInstall install{profiler};
    profiler.record("a.one", 0.5);
    profiler.record("a.one", 1.5);
    profiler.record("b.two", 0.25);
    const auto snap = profiler.snapshot();
    ASSERT_EQ(snap.entries.size(), 2U);
    EXPECT_EQ(snap.entries.at("a.one").count, 2U);
    EXPECT_DOUBLE_EQ(snap.entries.at("a.one").total_sec, 2.0);
    EXPECT_DOUBLE_EQ(snap.entries.at("a.one").max_sec, 1.5);
    EXPECT_EQ(snap.entries.at("b.two").count, 1U);

    const std::string json = snap.to_json();
    EXPECT_NE(json.find("\"a.one\""), std::string::npos);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
}

TEST(Profiler, MergeSumsCountsAndTotalsAndTakesMax) {
    obs::ProfileSnapshot a;
    a.entries["x"] = {2, 1.0, 0.75};
    obs::ProfileSnapshot b;
    b.entries["x"] = {3, 2.0, 0.5};
    b.entries["y"] = {1, 0.1, 0.1};
    a.merge(b);
    EXPECT_EQ(a.entries.at("x").count, 5U);
    EXPECT_DOUBLE_EQ(a.entries.at("x").total_sec, 3.0);
    EXPECT_DOUBLE_EQ(a.entries.at("x").max_sec, 0.75);
    EXPECT_EQ(a.entries.at("y").count, 1U);
}

// The determinism contract: wall-clock durations vary run to run, but the
// label set and per-label counts of the merged profile are a function of
// the trial sequence alone — identical at --jobs 1 and --jobs 8.
TEST(Profiler, MergedLabelsAndCountsIdenticalForJobs1And8) {
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
    obs::Profiler::set_process_enabled(true);
    parallel::SweepScheduler serial{{.jobs = 1}};
    parallel::SweepScheduler wide{{.jobs = 8}};
    const auto r1 = serial.run_all(configs);
    const auto r8 = wide.run_all(configs);
    obs::Profiler::set_process_enabled(false);

    const obs::ProfileSnapshot p1 = parallel::merge_trial_profiles(r1);
    const obs::ProfileSnapshot p8 = parallel::merge_trial_profiles(r8);
    ASSERT_FALSE(p1.empty());
    ASSERT_EQ(p1.entries.size(), p8.entries.size());
    auto it1 = p1.entries.begin();
    auto it8 = p8.entries.begin();
    for (; it1 != p1.entries.end(); ++it1, ++it8) {
        EXPECT_EQ(it1->first, it8->first);
        EXPECT_EQ(it1->second.count, it8->second.count) << it1->first;
    }
    EXPECT_GE(p1.entries.count("experiment.run"), 1U);
    EXPECT_GE(p1.entries.count("pm.timer_fire"), 1U);
}

} // namespace
