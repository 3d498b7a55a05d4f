#include "scenarios/registry.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include <spawn.h>
#include <sys/wait.h>

#include "apps/apps.hpp"
#include "net/elements/queue_element.hpp"
#include "obs/run_context.hpp"
#include "scenarios/audiocast.hpp"
#include "scenarios/nearnet.hpp"
#include "scenarios/scenario_sweep.hpp"
#include "scenarios/shared_lan_scenario.hpp"

extern char** environ; // NOLINT: POSIX, the environment run_binary passes on

namespace routesync::scenarios {

namespace {

// ---- builtin: nearnet ---------------------------------------------------
// The Figure 1/2 testbed with a ping probe; prints a loss summary. The
// full paper reproduction (series, autocorrelation, checks) stays in
// bench/fig01/fig02 — this runner is the interactive knob-turning entry.
int run_nearnet(const cli::Args& args) {
    NearnetConfig cfg;
    cfg.core_routers = args.integer("core-routers", cfg.core_routers);
    cfg.filler_routes = args.integer("filler-routes", cfg.filler_routes);
    cfg.update_period_sec = args.real("period", cfg.update_period_sec);
    cfg.jitter_sec = args.real("jitter", cfg.jitter_sec);
    cfg.blocking_cpu = !args.flag("non-blocking");
    cfg.incremental_updates = args.flag("incremental");
    cfg.seed = args.seed("seed", 1);
    NearnetScenario s{cfg};

    apps::PingConfig pc;
    pc.dst = s.dst().id();
    pc.count = args.integer("pings", 1000);
    apps::PingApp ping{s.src(), pc};
    ping.start(s.routing_start() + sim::SimTime::seconds(200));
    const double horizon = args.real("max-time", 1500.0);
    s.engine().run_until(sim::SimTime::seconds(horizon));

    std::printf("scenario,nearnet\n");
    std::printf("core_routers,%d\n", cfg.core_routers);
    std::printf("blocking_cpu,%d\n", cfg.blocking_cpu ? 1 : 0);
    std::printf("jitter_s,%g\n", cfg.jitter_sec);
    std::printf("pings_sent,%zu\n", ping.rtts().size());
    std::printf("pings_lost,%d\n", ping.lost());
    std::printf("loss_fraction,%.4f\n", ping.loss_fraction());
    return 0;
}

// ---- builtin: audiocast -------------------------------------------------
int run_audiocast(const cli::Args& args) {
    AudiocastConfig cfg;
    cfg.core_routers = args.integer("core-routers", cfg.core_routers);
    cfg.jitter_sec = args.real("jitter", cfg.jitter_sec);
    cfg.background_pps = args.real("bg-pps", cfg.background_pps);
    cfg.seed = args.seed("seed", 1);
    AudiocastScenario s{cfg};

    const double horizon = args.real("max-time", 720.0);
    apps::CbrConfig cc;
    cc.dst = s.audio_dst().id();
    cc.packets_per_second = 50.0;
    cc.stop_at = sim::SimTime::seconds(horizon - 15.0);
    apps::CbrSource src{s.audio_src(), cc};
    apps::AudioSink sink{s.audio_dst(), sim::SimTime::seconds(0.02)};
    apps::BackgroundConfig bg;
    bg.dst = s.bg_dst().id();
    bg.mean_packets_per_second = 270.0;
    bg.stop_at = cc.stop_at;
    bg.seed = 99;
    apps::BackgroundTraffic cross{s.bg_src(), bg};

    const auto t0 = s.routing_start() + sim::SimTime::seconds(95);
    src.start(t0);
    cross.start(t0);
    s.engine().run_until(sim::SimTime::seconds(horizon));

    const auto spikes = sink.outages_longer_than(0.5);
    std::printf("scenario,audiocast\n");
    std::printf("jitter_s,%g\n", cfg.jitter_sec);
    std::printf("packets_sent,%llu\n",
                static_cast<unsigned long long>(src.sent()));
    std::printf("packets_lost,%llu\n",
                static_cast<unsigned long long>(sink.lost()));
    std::printf("outages,%zu\n", sink.outages().size());
    std::printf("periodic_spikes,%zu\n", spikes.size());
    return 0;
}

// ---- builtin: shared_lan ------------------------------------------------
// The RED-vs-drop-tail knob (--queue red|droptail); see
// shared_lan_scenario.hpp for the mechanism under test. The config is
// kSharedLanTable's, which the run and the sweep both read.
SharedLanScenarioConfig parse_shared_lan_config(const cli::Args& args) {
    SharedLanScenarioConfig cfg;
    cfg.n = args.integer("n", cfg.n);
    cfg.tp = sim::SimTime::seconds(args.real("tp", cfg.tp.sec()));
    cfg.tr = sim::SimTime::seconds(args.real("tr", cfg.tr.sec()));
    cfg.tc = sim::SimTime::seconds(args.real("tc", cfg.tc.sec()));
    // The table admits only the names queue_disc_from_name knows.
    cfg.queue_disc = *net::elements::queue_disc_from_name(
        args.choice("queue", net::elements::queue_disc_name(cfg.queue_disc)));
    cfg.queue_packets = static_cast<std::size_t>(
        args.integer("queue-cap", static_cast<int>(cfg.queue_packets)));
    cfg.red.min_th = args.real("red-min", cfg.red.min_th);
    cfg.red.max_th = args.real("red-max", cfg.red.max_th);
    cfg.red.max_p = args.real("red-maxp", cfg.red.max_p);
    cfg.red.weight = args.real("red-weight", cfg.red.weight);
    cfg.bg_burst = args.integer("bg-burst", cfg.bg_burst);
    cfg.bg_period = sim::SimTime::seconds(args.real("bg-period", cfg.bg_period.sec()));
    cfg.max_time = sim::SimTime::seconds(args.real("max-time", cfg.max_time.sec()));
    cfg.seed = args.seed("seed", 1);
    if (args.choice("dispatch", "fast") == "virtual") {
        cfg.dispatch = net::elements::DispatchMode::Virtual;
    }
    return cfg;
}

/// The shared-LAN config of a run or a sweep, recorded in its manifest
/// so the run is reconstructible from its artifact alone.
void set_shared_lan_manifest_config(obs::Manifest& m,
                                    const SharedLanScenarioConfig& cfg) {
    // std::string{} forced: a bare const char* would select the bool
    // overload of set_config.
    m.set_config("queue",
                 std::string{net::elements::queue_disc_name(cfg.queue_disc)});
    m.set_config("n", cfg.n);
    m.set_config("tp_sec", cfg.tp.sec());
    m.set_config("tr_sec", cfg.tr.sec());
    m.set_config("tc_sec", cfg.tc.sec());
    m.set_config("queue_packets", static_cast<std::uint64_t>(cfg.queue_packets));
    m.set_config("bg_burst", cfg.bg_burst);
    m.set_config("bg_period_sec", cfg.bg_period.sec());
    m.set_config("max_time_sec", cfg.max_time.sec());
    m.set_config("monitor", cfg.monitor);
    if (cfg.monitor) {
        m.set_config("sync_threshold", cfg.sync_threshold);
        m.set_config("sync_hysteresis", cfg.sync_hysteresis);
    }
}

/// One scenario; the kSharedLanMonitorTable flags attach the monitor.
int run_shared_lan(const cli::Args& args) {
    SharedLanScenarioConfig cfg = parse_shared_lan_config(args);
    cfg.monitor = args.flag("monitor");
    cfg.sync_threshold = args.real("sync-threshold", cfg.sync_threshold);
    cfg.sync_hysteresis = args.real("sync-hysteresis", cfg.sync_hysteresis);
    obs::RunContext ctx; // before the run: the manifest's wall time covers it
    const SharedLanScenarioResult r = run_shared_lan_scenario(cfg);
    std::printf("scenario,shared_lan\n");
    std::printf("queue,%s\n", net::elements::queue_disc_name(cfg.queue_disc));
    std::printf("n,%d\n", cfg.n);
    std::printf("end_time_s,%.3f\n", r.end_time_s);
    std::printf("frames_offered,%llu\n",
                static_cast<unsigned long long>(r.frames_offered));
    std::printf("frames_delivered,%llu\n",
                static_cast<unsigned long long>(r.frames_delivered));
    std::printf("collisions,%llu\n",
                static_cast<unsigned long long>(r.collisions));
    std::printf("drops_queue,%llu\n",
                static_cast<unsigned long long>(r.drops_queue_full));
    std::printf("red_early_drops,%llu\n",
                static_cast<unsigned long long>(r.red_early_drops));
    std::printf("red_forced_drops,%llu\n",
                static_cast<unsigned long long>(r.red_forced_drops));
    std::printf("updates_sent,%llu\n",
                static_cast<unsigned long long>(r.updates_sent));
    std::printf("updates_heard,%llu\n",
                static_cast<unsigned long long>(r.updates_heard));
    std::printf("update_delivery_rate,%.4f\n",
                r.updates_sent == 0
                    ? 0.0
                    : static_cast<double>(r.updates_heard) /
                          (static_cast<double>(r.updates_sent) *
                           static_cast<double>(cfg.n - 1)));
    std::printf("largest_cluster,%d\n", r.largest_cluster);
    std::printf("largest_cluster_time_s,%s\n",
                r.largest_cluster_time_s
                    ? std::to_string(*r.largest_cluster_time_s).c_str()
                    : "none");
    std::printf("full_sync_time_s,%s\n",
                r.full_sync_time_s ? std::to_string(*r.full_sync_time_s).c_str()
                                   : "none");
    if (r.sync.has_value()) {
        const obs::SyncReport& s = *r.sync;
        std::printf("sync_r_last,%.6f\n", s.r_last);
        std::printf("sync_r_max,%.6f\n", s.r_max);
        std::printf("sync_transitions,%llu\n",
                    static_cast<unsigned long long>(s.transitions));
        std::printf("sync_time_to_sync_s,%s\n",
                    s.time_to_sync_sec >= 0.0
                        ? std::to_string(s.time_to_sync_sec).c_str()
                        : "none");
        std::printf("sync_entropy_last,%.6f\n", s.entropy_last);
        std::printf("sync_largest_fraction,%.4f\n", s.largest_fraction_last);
        std::printf("coupling_edges,%zu\n", r.sync_coupling.edge_count());
        std::printf("coupling_total_weight,%llu\n",
                    static_cast<unsigned long long>(
                        r.sync_coupling.total_weight()));
    }

    // --out FILE: a run manifest whose config embeds the element graph's
    // wire spec — the topology that ran, reconstructible via wire().
    const std::string out = args.text("out");
    if (!out.empty()) {
        obs::Manifest& m = ctx.manifest();
        m.tool = "scenario/shared_lan";
        m.description =
            "periodic updates on a congested CSMA/CD LAN (" +
            std::string{net::elements::queue_disc_name(cfg.queue_disc)} +
            " station queues)";
        m.seeds = {cfg.seed};
        set_shared_lan_manifest_config(m, cfg);
        m.set_config("elements.wire_spec", r.wire_spec);
        publish_shared_lan_metrics(ctx.metrics(), r);
        if (r.sync.has_value()) {
            obs::publish_sync_metrics(ctx.metrics(), *r.sync, r.sync_coupling);
        }
        ctx.write_manifest(out, r.end_time_s);
    }
    return 0;
}

ScenarioEntry builtin(std::string name, std::string summary,
                      std::vector<cli::Table> flags,
                      std::function<int(const cli::Args&)> run) {
    ScenarioEntry e;
    e.name = std::move(name);
    e.summary = std::move(summary);
    e.flags = std::move(flags);
    e.run = std::move(run);
    return e;
}

ScenarioEntry external(std::string name, std::string summary,
                       std::string binary) {
    ScenarioEntry e;
    e.name = std::move(name);
    e.summary = std::move(summary);
    e.binary = std::move(binary);
    return e;
}

/// Runs the binary at `path` with `args` and waits for it: no shell, so
/// every argument reaches it as one argv entry, whatever it holds.
/// Returns its exit status, or 1 if a signal ended it. Throws
/// std::runtime_error if it cannot be started.
int run_binary(const std::string& path, std::span<const std::string> args) {
    std::vector<char*> argv{const_cast<char*>(path.c_str())};
    for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc =
        posix_spawn(&pid, path.c_str(), nullptr, nullptr, argv.data(), environ);
    if (rc != 0) {
        throw std::runtime_error{"cannot run " + path + ": " + std::strerror(rc)};
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            throw std::runtime_error{"cannot wait for " + path + ": " +
                                     std::strerror(errno)};
        }
    }
    // The binary's own exit status (2 for a flag it rejects); 1 if a
    // signal ended it.
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

} // namespace

int run_shared_lan_sweep(const cli::Args& args) {
    ScenarioSweepConfig sc;
    sc.base = parse_shared_lan_config(args);
    const std::string buffers =
        args.text("buffers", std::to_string(sc.base.queue_packets));
    const std::string loads = args.text("loads", "1");
    sc.buffers = parse_buffer_list(buffers);
    sc.loads = parse_load_list(loads);
    sc.trials = args.integer("trials", 1);
    // Absent is 1 (one cell at a time), 0 the hardware concurrency.
    sc.jobs = args.integer<std::size_t>("jobs", 1);
    obs::RunContext ctx; // before the run: the manifest's wall time covers it
    const ScenarioSweepResult sweep = run_scenario_sweep(sc);

    // Stdout carries no jobs/steals: `--jobs N` must be byte-identical
    // to `--jobs 1` (the repo-wide determinism contract).
    std::printf("scenario_sweep,shared_lan\n");
    std::printf("queue,%s\n",
                net::elements::queue_disc_name(sc.base.queue_disc));
    std::printf("buffers");
    for (const std::size_t b : sc.buffers) {
        std::printf(",%zu", b);
    }
    std::printf("\nloads");
    for (const double l : sc.loads) {
        std::printf(",%g", l);
    }
    std::printf("\ntrials,%d\n", sc.trials);
    std::printf("cells,%zu\n", sweep.cells.size());
    std::printf("buffer,load,trial,seed,end_time_s,frames_delivered,"
                "drops_queue,updates_sent,updates_heard,largest_cluster,"
                "full_sync_time_s,trace_events,trace_digest\n");
    int synced = 0;
    double sim_seconds = 0.0;
    std::uint64_t transmissions = 0;
    for (const ScenarioSweepCell& cell : sweep.cells) {
        const SharedLanScenarioResult& r = cell.result;
        std::printf("%zu,%g,%d,%llu,%.3f,%llu,%llu,%llu,%llu,%d,%s,%llu,0x%016llx\n",
                    cell.buffer, cell.load, cell.trial,
                    static_cast<unsigned long long>(cell.seed), r.end_time_s,
                    static_cast<unsigned long long>(r.frames_delivered),
                    static_cast<unsigned long long>(r.drops_queue_full),
                    static_cast<unsigned long long>(r.updates_sent),
                    static_cast<unsigned long long>(r.updates_heard),
                    r.largest_cluster,
                    r.full_sync_time_s ? std::to_string(*r.full_sync_time_s).c_str()
                                       : "none",
                    static_cast<unsigned long long>(cell.trace_events),
                    static_cast<unsigned long long>(cell.trace_digest));
        synced += r.full_sync_time_s.has_value() ? 1 : 0;
        sim_seconds += r.end_time_s;
        transmissions += r.frames_delivered;
    }
    std::printf("synced_cells,%d\n", synced);
    std::printf("transmissions_checksum,%llu\n",
                static_cast<unsigned long long>(transmissions));
    std::printf("combined_digest,0x%016llx\n",
                static_cast<unsigned long long>(sweep.combined_digest));
    std::fprintf(stderr,
                 "scenario sweep: %zu cells on %zu workers (%zu steals)\n",
                 sweep.cells.size(), sweep.jobs, sweep.steals);

    const std::string out = args.text("out");
    if (!out.empty()) {
        obs::Manifest& m = ctx.manifest();
        m.tool = "scenario/shared_lan_sweep";
        m.description =
            "buffer x load x trial grid of shared-LAN runs (" +
            std::string{net::elements::queue_disc_name(sc.base.queue_disc)} +
            " station queues)";
        m.seeds = {sc.base.seed};
        m.jobs = sweep.jobs;
        set_shared_lan_manifest_config(m, sc.base);
        m.set_config("buffers", buffers);
        m.set_config("loads", loads);
        m.set_config("trials", sc.trials);
        m.set_config("cells", static_cast<std::uint64_t>(sweep.cells.size()));
        char digest[32];
        std::snprintf(digest, sizeof digest, "0x%016llx",
                      static_cast<unsigned long long>(sweep.combined_digest));
        m.set_config("combined_digest", std::string{digest});
        // Every cell's counters, in submission order: jobs-invariant.
        obs::MetricsRegistry& reg = ctx.metrics();
        for (const ScenarioSweepCell& cell : sweep.cells) {
            publish_shared_lan_metrics(reg, cell.result);
            reg.add("sweep.trace_events", cell.trace_events);
            if (cell.result.full_sync_time_s.has_value()) {
                reg.add("sweep.synced_cells", 1);
                reg.observe("sweep.full_sync_time_sec", *cell.result.full_sync_time_s);
            }
        }
        ctx.write_manifest(out, sim_seconds);
    }
    return 0;
}

ScenarioRegistry& ScenarioRegistry::instance() {
    static ScenarioRegistry registry;
    return registry;
}

void ScenarioRegistry::add(ScenarioEntry entry) {
    if (entry.name.empty()) {
        throw std::invalid_argument{"ScenarioRegistry: empty scenario name"};
    }
    if (entry.run == nullptr && entry.binary.empty()) {
        throw std::invalid_argument{"ScenarioRegistry: entry '" + entry.name +
                                    "' is neither builtin nor external"};
    }
    if (find(entry.name) != nullptr) {
        throw std::invalid_argument{"ScenarioRegistry: duplicate scenario '" +
                                    entry.name + "'"};
    }
    entries_.push_back(std::move(entry));
}

const ScenarioEntry* ScenarioRegistry::find(const std::string& name) const {
    for (const ScenarioEntry& e : entries_) {
        if (e.name == name) {
            return &e;
        }
    }
    return nullptr;
}

int ScenarioRegistry::run(const std::string& name,
                          std::span<const std::string> tokens,
                          const std::string& bin_dir) const {
    const ScenarioEntry* entry = find(name);
    if (entry == nullptr) {
        throw std::invalid_argument{
            "unknown scenario '" + name +
            "' (run `routesync scenario list` for the table)"};
    }
    // --bin-dir belongs to the dispatch: builtins accept and ignore it,
    // and externals do not see it.
    static constexpr cli::FlagSpec kDispatchTable[] = {cli::text("bin-dir", "DIR")};
    if (entry->is_builtin()) {
        std::vector<cli::Table> tables = entry->flags;
        tables.emplace_back(kDispatchTable);
        return entry->run(cli::parse(tokens, tables));
    }
    std::string dir = bin_dir;
    std::vector<std::string> forwarded;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].starts_with("--bin-dir=")) {
            dir = tokens[i].substr(10);
        } else if (tokens[i] == "--bin-dir") {
            if (i + 1 == tokens.size() || tokens[i + 1].starts_with("--")) {
                throw std::invalid_argument{"--bin-dir needs a value"};
            }
            dir = tokens[++i];
        } else {
            forwarded.push_back(tokens[i]);
        }
    }
    return run_binary(dir + "/" + entry->binary, forwarded);
}

void register_builtin_scenarios() {
    ScenarioRegistry& reg = ScenarioRegistry::instance();
    if (reg.find("nearnet") != nullptr) {
        return; // already populated
    }
    reg.add(builtin("nearnet",
                    "Fig 1/2 testbed: pings through synchronized IGRP core routers",
                    {kNearnetTable}, run_nearnet));
    reg.add(builtin("audiocast",
                    "Fig 3 testbed: audio outages under synchronized RIP storms",
                    {kAudiocastTable}, run_audiocast));
    reg.add(builtin("shared_lan",
                    "periodic updates on a congested CSMA/CD LAN; RED vs "
                    "drop-tail station queues",
                    {kSharedLanTable, kSharedLanMonitorTable}, run_shared_lan));
    // The standalone paper figures and examples, addressable through the
    // same table (resolved against --bin-dir, default ".": run from the
    // build directory).
    reg.add(external("fig1", "ping losses from synchronized IGRP updates",
                     "bench/fig01_ping_losses"));
    reg.add(external("fig2", "ping-loss autocorrelation",
                     "bench/fig02_autocorrelation"));
    reg.add(external("fig3", "audio outages under synchronized RIP",
                     "bench/fig03_audio_outages"));
    reg.add(external("fig4", "evolution of synchronization clusters",
                     "bench/fig04_sync_evolution"));
    reg.add(external("fig5", "close-up of a cluster merge",
                     "bench/fig05_cluster_closeup"));
    reg.add(external("fig6", "cluster-size transition graph",
                     "bench/fig06_cluster_graph"));
    reg.add(external("fig7", "unsynchronized-start jitter sweep",
                     "bench/fig07_unsync_start_sweep"));
    reg.add(external("fig8", "synchronized-start jitter sweep",
                     "bench/fig08_sync_start_sweep"));
    reg.add(external("ablation_shared_lan",
                     "PM workload over real CSMA/CD (Section 3 ablation)",
                     "bench/ablation_shared_lan"));
    reg.add(external("quickstart", "minimal end-to-end simulation example",
                     "examples/quickstart"));
    reg.add(external("routing_storm", "routing-storm walkthrough example",
                     "examples/routing_storm"));
    reg.add(external("jitter_tuning", "jitter-tuning walkthrough example",
                     "examples/jitter_tuning"));
    reg.add(external("triggered_wave", "triggered-update wave example",
                     "examples/triggered_wave"));
    reg.add(external("tcp_global_sync", "TCP global synchronization example",
                     "examples/tcp_global_sync"));
}

} // namespace routesync::scenarios
