// Engine micro-benchmarks (google-benchmark): throughput of the pieces
// every experiment leans on. Not a paper figure — a performance floor so
// regressions in the simulator core are visible.
//
// Takes google-benchmark's flags only; any other flag exits 2. Its JSON
// reporter writes the machine-readable results, and the report's context
// names the build (git describe, build type, compiler):
//
//   perf_microbench --benchmark_out=BENCH_perf.json
//       --benchmark_out_format=json --benchmark_repetitions=5
//       --benchmark_report_aggregates_only=true
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "markov/markov.hpp"
#include "net/net.hpp"
#include "obs/build_info.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel.hpp"
#include "rng/rng.hpp"
#include "routing/routing.hpp"
#include "stats/stats.hpp"

using namespace routesync;

namespace {

void BM_Xoshiro256ss(benchmark::State& state) {
    rng::Xoshiro256ss gen{12345};
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Xoshiro256ss);

void BM_EventQueue_PushPop(benchmark::State& state) {
    const auto batch = static_cast<int>(state.range(0));
    sim::EventQueue q;
    rng::Xoshiro256ss gen{1};
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i) {
            q.push(sim::SimTime::seconds(rng::uniform01(gen)), [] {});
        }
        while (!q.empty()) {
            benchmark::DoNotOptimize(q.pop().time);
        }
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueue_PushPop)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EventQueue_PushCancel(benchmark::State& state) {
    // The reschedule-before-firing pattern: every event is cancelled and
    // replaced. Exercises O(1) cancel plus the tombstone compaction.
    const auto batch = static_cast<int>(state.range(0));
    sim::EventQueue q;
    rng::Xoshiro256ss gen{1};
    std::vector<sim::EventHandle> handles(static_cast<std::size_t>(batch));
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i) {
            handles[static_cast<std::size_t>(i)] =
                q.push(sim::SimTime::seconds(rng::uniform01(gen)), [] {});
        }
        for (int i = 0; i < batch; ++i) {
            benchmark::DoNotOptimize(q.cancel(handles[static_cast<std::size_t>(i)]));
        }
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueue_PushCancel)->Arg(1024)->Arg(16384);

core::ExperimentConfig kernel_trial_config(core::ExperimentBackend backend) {
    core::ExperimentConfig cfg;
    cfg.params.n = 20;
    cfg.params.tp = sim::SimTime::seconds(121);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.tr = sim::SimTime::seconds(0.11);
    cfg.params.seed = 42;
    cfg.max_time = sim::SimTime::seconds(2e4);
    cfg.backend = backend;
    return cfg;
}

void BM_PMKernelLegacy_Trial(benchmark::State& state) {
    // One kernel trial forced onto the generic DES engine +
    // PeriodicMessagesModel — the in-binary baseline (and test oracle)
    // for BM_PMKernel_Trial.
    const auto cfg = kernel_trial_config(core::ExperimentBackend::Engine);
    std::uint64_t events = 0;
    for (auto _ : state) {
        const auto r = core::run_experiment(cfg);
        events = r.events_processed;
        benchmark::DoNotOptimize(r.total_transmissions);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(events));
}
BENCHMARK(BM_PMKernelLegacy_Trial);

void BM_PMKernel_Trial(benchmark::State& state) {
    // BM_PMKernelLegacy_Trial's config on the PM kernel (sorted-run queue
    // at n = 20, O(1) shared-busy broadcast): the ratio of the two is the
    // kernel's win on the same trial.
    const auto cfg = kernel_trial_config(core::ExperimentBackend::FastKernel);
    std::uint64_t events = 0;
    for (auto _ : state) {
        const auto r = core::run_experiment(cfg);
        events = r.events_processed;
        benchmark::DoNotOptimize(r.total_transmissions);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(events));
}
BENCHMARK(BM_PMKernel_Trial);

void BM_PMKernel_Metro(benchmark::State& state) {
    // One Figure 15 trial past the cliff (Tp = 121 s, Tc = 0.11 s,
    // Tr = 0.3 s, unsynchronized start, 2e4 simulated seconds) at
    // N = state.range(0), on the calendar queue: every round re-arms N
    // timers at one instant and queues N busy checks behind one busy
    // period. The shape the benchmark's pm_metro workload times.
    core::ExperimentConfig cfg;
    cfg.params.n = static_cast<int>(state.range(0));
    cfg.params.tp = sim::SimTime::seconds(121);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.tr = sim::SimTime::seconds(0.3);
    cfg.params.seed = 42;
    cfg.max_time = sim::SimTime::seconds(2e4);
    cfg.backend = core::ExperimentBackend::FastKernel;
    std::uint64_t events = 0;
    for (auto _ : state) {
        const auto r = core::run_experiment(cfg);
        events = r.events_processed;
        benchmark::DoNotOptimize(r.total_transmissions);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(events));
}
BENCHMARK(BM_PMKernel_Metro)->Arg(300)->Arg(3000)->Arg(30000);

void BM_SweepScheduler(benchmark::State& state) {
    // A fixed set of independent trials through the work-stealing
    // scheduler at one worker: the fan-out's own cost next to
    // BM_PMKernel_Trial's. A shared host cannot time thread scaling.
    const std::size_t jobs = static_cast<std::size_t>(state.range(0));
    const int kTrials = 8;
    for (auto _ : state) {
        parallel::SweepScheduler scheduler{{.jobs = jobs}};
        const auto results =
            scheduler.run_generated(kTrials, [](std::size_t i) {
                core::ExperimentConfig cfg;
                cfg.params.n = 20;
                cfg.params.tp = sim::SimTime::seconds(121);
                cfg.params.tc = sim::SimTime::seconds(0.11);
                cfg.params.tr = sim::SimTime::seconds(0.11);
                cfg.params.seed = parallel::derive_seed(42, i);
                cfg.max_time = sim::SimTime::seconds(2e4);
                return cfg;
            });
        benchmark::DoNotOptimize(results.size());
    }
    state.SetItemsProcessed(state.iterations() * kTrials);
}
BENCHMARK(BM_SweepScheduler)->Arg(1)->UseRealTime();

void BM_Engine_SelfSchedulingChain(benchmark::State& state) {
    for (auto _ : state) {
        sim::Engine engine;
        int remaining = 10000;
        std::function<void()> tick = [&] {
            if (--remaining > 0) {
                engine.schedule_after(sim::SimTime::seconds(1), tick);
            }
        };
        engine.schedule_at(sim::SimTime::zero(), tick);
        engine.run();
        benchmark::DoNotOptimize(engine.events_processed());
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_Engine_SelfSchedulingChain);

/// One step of a cascade whose every event schedules the next a moment
/// later (a CSMA/CD station seizing the channel, its transmission-done,
/// the next frame's contention).
struct NearFutureCascade {
    sim::Engine* engine;
    int remaining;
    void step() {
        if (--remaining > 0) {
            engine->schedule_after(sim::SimTime::micros(100), [this] { step(); });
        }
    }
};

void BM_Engine_NearFutureCascade(benchmark::State& state) {
    // The near-future shape, next to the random-time ones above: a backlog
    // of range(0) timers pending far ahead, and a cascade of 10 000 events
    // each scheduled earlier than everything queued — the event the queue
    // serves next, straight after it was pushed.
    const auto backlog = static_cast<int>(state.range(0));
    sim::Engine engine;
    rng::Xoshiro256ss gen{5};
    for (int i = 0; i < backlog; ++i) {
        engine.schedule_at(sim::SimTime::seconds(1e9 + rng::uniform01(gen)), [] {});
    }
    for (auto _ : state) {
        NearFutureCascade cascade{&engine, 10000};
        engine.schedule_after(sim::SimTime::zero(), [&cascade] { cascade.step(); });
        engine.run_until(engine.now() + sim::SimTime::seconds(1.0));
        benchmark::DoNotOptimize(engine.events_processed());
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_Engine_NearFutureCascade)->Arg(64)->Arg(1024)->Arg(16384);

void BM_PeriodicMessages_SimSecond(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    sim::Engine engine;
    core::ModelParams p;
    p.n = n;
    p.seed = 3;
    core::PeriodicMessagesModel model{engine, p};
    double horizon = 0.0;
    for (auto _ : state) {
        horizon += 1000.0; // one thousand simulated seconds per iteration
        engine.run_until(sim::SimTime::seconds(horizon));
        benchmark::DoNotOptimize(model.total_transmissions());
    }
    state.SetItemsProcessed(state.iterations() * 1000); // simulated seconds
}
BENCHMARK(BM_PeriodicMessages_SimSecond)->Arg(20)->Arg(100);

void BM_Autocorrelation(benchmark::State& state) {
    std::vector<double> xs;
    rng::Xoshiro256ss gen{9};
    for (int i = 0; i < 1000; ++i) {
        xs.push_back(rng::uniform01(gen));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::autocorrelation(xs, 200));
    }
}
BENCHMARK(BM_Autocorrelation);

void BM_FJChain_HittingTimes(benchmark::State& state) {
    markov::ChainParams p;
    p.n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const markov::FJChain chain{p};
        benchmark::DoNotOptimize(chain.f_rounds());
        benchmark::DoNotOptimize(chain.g_rounds());
    }
}
BENCHMARK(BM_FJChain_HittingTimes)->Arg(20)->Arg(200);

void shared_lan_saturated(benchmark::State& state,
                          net::elements::DispatchMode dispatch) {
    sim::Engine engine;
    net::SharedLanConfig cfg;
    cfg.station_queue_packets = 1 << 20;
    cfg.dispatch = dispatch;
    net::SharedLan lan{engine, cfg};
    for (int i = 0; i < 4; ++i) {
        lan.attach([](net::Packet) {});
    }
    std::uint64_t seq = 0;
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i) {
            net::Packet p;
            p.size_bytes = 1000;
            p.seq = seq++;
            lan.send(static_cast<int>(seq % 4), p);
        }
        engine.run();
        benchmark::DoNotOptimize(lan.stats().frames_delivered);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}

/// The checked-virtual reference (the pre-fast-path medium).
void BM_SharedLanSaturated(benchmark::State& state) {
    shared_lan_saturated(state, net::elements::DispatchMode::Virtual);
}
BENCHMARK(BM_SharedLanSaturated);

/// The default fast path: devirtualized station queues + fused fan-out.
void BM_SharedLanSaturatedFast(benchmark::State& state) {
    shared_lan_saturated(state, net::elements::DispatchMode::Fast);
}
BENCHMARK(BM_SharedLanSaturatedFast);

// ----------------------------------------------------- packet hot path
//
// Every packet-path row offers its whole burst at one instant to
// zero-rate links (rate_bps = 0), so each link's backlog drains as a
// cascade of same-time events. No scenario, bench or benchmark workload
// builds such a link; the configuration stays as it is so that rows
// compare across commits.

constexpr int kBurst = 64;
constexpr int kFanOut = 4;
constexpr int kChainHops = 8;
constexpr int kEntriesPerUpdate = 25;

/// Enqueue→deliver of one routing update: build a 25-entry payload,
/// enqueue the packet on a link, deliver at the far end. This is the
/// per-interface lifecycle of a periodic update under the default
/// split-horizon config (each interface gets its own payload build).
void packet_path_enqueue_deliver(benchmark::State& state,
                                 net::elements::DispatchMode dispatch) {
    sim::Engine engine;
    std::uint64_t delivered = 0;
    net::Link link{engine,
                   net::LinkConfig{.rate_bps = 0.0,
                                   .delay = sim::SimTime::micros(1),
                                   .queue_packets = 512,
                                   .dispatch = dispatch},
                   [&delivered](net::PooledPacket) { ++delivered; }};
    std::uint64_t seq = 0;
    for (auto _ : state) {
        for (int i = 0; i < kBurst; ++i) {
            net::Packet p;
            p.type = net::PacketType::RoutingUpdate;
            p.src = 0;
            p.dst = 1;
            p.size_bytes = 524;
            p.seq = seq++;
            net::PayloadRef ref = net::PayloadPool::local().acquire();
            auto& payload = ref.mutate();
            payload.sender = 0;
            for (int e = 0; e < kEntriesPerUpdate; ++e) {
                payload.entries.push_back({e, e % 15});
            }
            p.update = std::move(ref);
            link.send(std::move(p));
        }
        engine.run();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * kBurst);
}

/// The same enqueue→deliver loop with a tracer attached — measures the
/// observability layer's per-packet cost when tracing is ON. Two sink
/// variants: NullSink (event construction + virtual dispatch only) and
/// RingBufferSink (plus the deque). The tracing-OFF overhead is the
/// plain BM_PacketPath_EnqueueDeliver benchmark: its emit sites reduce
/// to one null-pointer test.
template <typename Sink, typename... Args>
void packet_path_traced(benchmark::State& state, Args&&... args) {
    sim::Engine engine;
    Sink sink{std::forward<Args>(args)...};
    obs::Tracer tracer{sink};
    engine.set_tracer(&tracer);
    std::uint64_t delivered = 0;
    net::Link link{engine,
                   net::LinkConfig{.rate_bps = 0.0,
                                   .delay = sim::SimTime::micros(1),
                                   .queue_packets = 512},
                   [&delivered](net::PooledPacket) { ++delivered; }};
    std::uint64_t seq = 0;
    for (auto _ : state) {
        for (int i = 0; i < kBurst; ++i) {
            net::Packet p;
            p.type = net::PacketType::RoutingUpdate;
            p.src = 0;
            p.dst = 1;
            p.size_bytes = 524;
            p.seq = seq++;
            net::PayloadRef ref = net::PayloadPool::local().acquire();
            auto& payload = ref.mutate();
            payload.sender = 0;
            for (int e = 0; e < kEntriesPerUpdate; ++e) {
                payload.entries.push_back({e, e % 15});
            }
            p.update = std::move(ref);
            link.send(std::move(p));
        }
        engine.run();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * kBurst);
}

/// The checked-virtual reference (the pre-fast-path element dispatch).
void BM_PacketPath_EnqueueDeliver(benchmark::State& state) {
    packet_path_enqueue_deliver(state, net::elements::DispatchMode::Virtual);
}
BENCHMARK(BM_PacketPath_EnqueueDeliver);

/// The default fast path: devirtualized ports and the in-flight FIFO.
void BM_PacketPathFast_EnqueueDeliver(benchmark::State& state) {
    packet_path_enqueue_deliver(state, net::elements::DispatchMode::Fast);
}
BENCHMARK(BM_PacketPathFast_EnqueueDeliver);

void BM_PacketPath_EnqueueDeliver_TracedNull(benchmark::State& state) {
    packet_path_traced<obs::NullSink>(state);
}
BENCHMARK(BM_PacketPath_EnqueueDeliver_TracedNull);

void BM_PacketPath_EnqueueDeliver_TracedRing(benchmark::State& state) {
    packet_path_traced<obs::RingBufferSink>(state, std::size_t{1} << 16);
}
BENCHMARK(BM_PacketPath_EnqueueDeliver_TracedRing);

/// The broadcast variant (split horizon off): one payload fanned out as
/// 4 packet copies that share one pooled slot.
void packet_path_broadcast(benchmark::State& state,
                           net::elements::DispatchMode dispatch) {
    sim::Engine engine;
    std::uint64_t delivered = 0;
    std::vector<std::unique_ptr<net::Link>> links;
    for (int i = 0; i < kFanOut; ++i) {
        links.push_back(std::make_unique<net::Link>(
            engine,
            net::LinkConfig{.rate_bps = 0.0,
                            .delay = sim::SimTime::micros(1),
                            .queue_packets = 512,
                            .dispatch = dispatch},
            [&delivered](net::PooledPacket) { ++delivered; }));
    }
    std::uint64_t seq = 0;
    for (auto _ : state) {
        for (int i = 0; i < kBurst; ++i) {
            net::Packet p;
            p.type = net::PacketType::RoutingUpdate;
            p.src = 0;
            p.size_bytes = 524;
            p.seq = seq++;
            net::PayloadRef ref = net::PayloadPool::local().acquire();
            auto& payload = ref.mutate();
            payload.sender = 0;
            for (int e = 0; e < kEntriesPerUpdate; ++e) {
                payload.entries.push_back({e, e % 15});
            }
            p.update = std::move(ref);
            for (int iface = 0; iface < kFanOut; ++iface) {
                net::Packet copy = p; // payload slot shared, not reallocated
                copy.dst = iface;
                links[static_cast<std::size_t>(iface)]->send(std::move(copy));
            }
        }
        engine.run();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * kBurst * kFanOut);
}

/// The checked-virtual reference (the pre-fast-path element dispatch).
void BM_PacketPath_Broadcast(benchmark::State& state) {
    packet_path_broadcast(state, net::elements::DispatchMode::Virtual);
}
BENCHMARK(BM_PacketPath_Broadcast);

/// The default fast path: gains come from devirtualized dispatch,
/// duplicate-time event chaining, and trivially-copyable captures.
void BM_PacketPathFast_Broadcast(benchmark::State& state) {
    packet_path_broadcast(state, net::elements::DispatchMode::Fast);
}
BENCHMARK(BM_PacketPathFast_Broadcast);

/// Multi-hop forwarding context: the same update packets relayed down an
/// 8-hop link chain, where shared event-engine cost dominates and the
/// per-hop delta is what remains visible.
void packet_path_forward_chain(benchmark::State& state,
                               net::elements::DispatchMode dispatch) {
    sim::Engine engine;
    std::uint64_t delivered = 0;
    std::vector<std::unique_ptr<net::Link>> chain(kChainHops);
    for (int hop = kChainHops - 1; hop >= 0; --hop) {
        std::function<void(net::PooledPacket)> deliver;
        if (hop == kChainHops - 1) {
            deliver = [&delivered](net::PooledPacket) { ++delivered; };
        } else {
            deliver = [&chain, hop](net::PooledPacket p) {
                chain[static_cast<std::size_t>(hop + 1)]->send(std::move(p));
            };
        }
        chain[static_cast<std::size_t>(hop)] = std::make_unique<net::Link>(
            engine,
            net::LinkConfig{.rate_bps = 0.0,
                            .delay = sim::SimTime::micros(1),
                            .queue_packets = 512,
                            .dispatch = dispatch},
            std::move(deliver));
    }
    std::uint64_t seq = 0;
    for (auto _ : state) {
        for (int i = 0; i < kBurst; ++i) {
            net::Packet p;
            p.type = net::PacketType::RoutingUpdate;
            p.src = 0;
            p.dst = 1;
            p.size_bytes = 524;
            p.seq = seq++;
            net::PayloadRef ref = net::PayloadPool::local().acquire();
            auto& payload = ref.mutate();
            payload.sender = 0;
            for (int e = 0; e < kEntriesPerUpdate; ++e) {
                payload.entries.push_back({e, e % 15});
            }
            p.update = std::move(ref);
            chain[0]->send(std::move(p));
        }
        engine.run();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * kBurst * kChainHops);
}

/// The checked-virtual reference (the pre-fast-path element dispatch).
void BM_PacketPath_ForwardChain(benchmark::State& state) {
    packet_path_forward_chain(state, net::elements::DispatchMode::Virtual);
}
BENCHMARK(BM_PacketPath_ForwardChain);

/// The default fast path: devirtualized ports and the in-flight FIFO;
/// each hop runs the same events as the virtual reference.
void BM_PacketPathFast_ForwardChain(benchmark::State& state) {
    packet_path_forward_chain(state, net::elements::DispatchMode::Fast);
}
BENCHMARK(BM_PacketPathFast_ForwardChain);

/// Building one update payload and handing it to a packet — the pooled
/// slot recycles its entry-vector capacity.
void BM_UpdatePayload_Pooled(benchmark::State& state) {
    net::PayloadPool pool;
    for (auto _ : state) {
        net::PayloadRef ref = pool.acquire();
        auto& payload = ref.mutate();
        payload.sender = 3;
        for (int e = 0; e < kEntriesPerUpdate; ++e) {
            payload.entries.push_back({e, 1});
        }
        net::Packet p;
        p.update = std::move(ref);
        benchmark::DoNotOptimize(p.update->entries.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdatePayload_Pooled);

// -------------------------------------------------------- routing table

constexpr int kTableRoutes = 256;

routing::RoutingTable make_flat_table() {
    routing::RoutingTable table;
    for (int d = 0; d < kTableRoutes; ++d) {
        routing::Route r{};
        r.dest = d * 2; // leave odd ids as misses
        r.metric = d % 15;
        table.upsert(r);
    }
    return table;
}

/// Full-table walk — what the DV agent does every period to build its
/// updates, and what the expiry pass scans. The dominant table access in
/// steady state: a contiguous scan of the flat table.
void BM_RoutingTable_Flat_Walk(benchmark::State& state) {
    const auto table = make_flat_table();
    for (auto _ : state) {
        std::int64_t sum = 0;
        for (const auto& route : table) {
            sum += route.metric + route.dest;
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * kTableRoutes);
}
BENCHMARK(BM_RoutingTable_Flat_Walk);

/// Point lookups, half the probes missing — the receive-path access.
void BM_RoutingTable_Flat_Find(benchmark::State& state) {
    auto table = make_flat_table();
    for (auto _ : state) {
        std::int64_t sum = 0;
        for (int d = 0; d < 2 * kTableRoutes; ++d) {
            const auto* r = table.find(d);
            sum += r != nullptr ? r->metric : 0;
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * 2 * kTableRoutes);
}
BENCHMARK(BM_RoutingTable_Flat_Find);

// ------------------------------------------------------- spectral paths

std::vector<double> bench_series(std::size_t n) {
    std::vector<double> xs;
    xs.reserve(n);
    rng::Xoshiro256ss gen{9};
    for (std::size_t i = 0; i < n; ++i) {
        xs.push_back(rng::uniform01(gen));
    }
    return xs;
}

void BM_Periodogram_FFT(benchmark::State& state) {
    const auto xs = bench_series(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::periodogram(xs));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Periodogram_FFT)->Arg(1024)->Arg(16384);

void BM_PeriodogramLegacy_Naive(benchmark::State& state) {
    const auto xs = bench_series(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::periodogram_naive(xs));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PeriodogramLegacy_Naive)->Arg(1024)->Arg(16384);

void BM_Autocorrelation_FFT(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const auto xs = bench_series(n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::autocorrelation(xs, n / 4));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Autocorrelation_FFT)->Arg(1024)->Arg(16384);

void BM_AutocorrelationLegacy_Naive(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const auto xs = bench_series(n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::autocorrelation_naive(xs, n / 4));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AutocorrelationLegacy_Naive)->Arg(1024)->Arg(16384);

void BM_DvFullMeshSimSecond(benchmark::State& state) {
    sim::Engine engine;
    net::Network nw{engine};
    const int n = 6;
    std::vector<net::Router*> routers;
    for (int i = 0; i < n; ++i) {
        routers.push_back(&nw.add_router("r" + std::to_string(i)));
    }
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            nw.connect(*routers[static_cast<std::size_t>(i)],
                       *routers[static_cast<std::size_t>(j)]);
        }
    }
    nw.install_static_routes();
    routing::DvConfig dv;
    dv.period = sim::SimTime::seconds(20);
    dv.jitter = sim::SimTime::seconds(1);
    dv.filler_routes = 300;
    std::vector<std::unique_ptr<routing::DistanceVectorAgent>> agents;
    for (int i = 0; i < n; ++i) {
        routing::DvConfig c = dv;
        c.seed = static_cast<std::uint64_t>(i) + 1;
        agents.push_back(
            std::make_unique<routing::DistanceVectorAgent>(*routers[static_cast<std::size_t>(i)], c));
        agents.back()->start(sim::SimTime::seconds(0.1 * i));
    }
    double horizon = 0.0;
    for (auto _ : state) {
        horizon += 1000.0;
        engine.run_until(sim::SimTime::seconds(horizon));
        benchmark::DoNotOptimize(engine.events_processed());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DvFullMeshSimSecond);

} // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 2;
    }
    benchmark::AddCustomContext("git_describe", obs::kGitDescribe);
    benchmark::AddCustomContext("build_type", obs::kBuildType);
    benchmark::AddCustomContext("compiler", ROUTESYNC_COMPILER);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
