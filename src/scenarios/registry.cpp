#include "scenarios/registry.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include <sys/wait.h>

#include "apps/apps.hpp"
#include "cli/flags.hpp"
#include "net/elements/queue_element.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "scenarios/audiocast.hpp"
#include "scenarios/nearnet.hpp"
#include "scenarios/scenario_sweep.hpp"
#include "scenarios/shared_lan_scenario.hpp"

namespace routesync::scenarios {

namespace {

using cli::flag_d;
using cli::flag_i;
using cli::flag_s;

/// `--jobs` for the shared-LAN runs: absent is 1 (one cell at a time),
/// 0 the hardware concurrency (the TaskPool's auto setting).
std::size_t shared_lan_jobs(const ScenarioFlags& flags) {
    return flags.contains("jobs") ? cli::flag_jobs(flags, 0) : 1;
}

// ---- builtin: nearnet ---------------------------------------------------
// The Figure 1/2 testbed with a ping probe; prints a loss summary. The
// full paper reproduction (series, autocorrelation, checks) stays in
// bench/fig01/fig02 — this runner is the interactive knob-turning entry.
int run_nearnet(const ScenarioFlags& flags) {
    NearnetConfig cfg;
    cfg.core_routers = flag_i(flags, "core-routers", cfg.core_routers);
    cfg.filler_routes = flag_i(flags, "filler-routes", cfg.filler_routes);
    cfg.update_period_sec = flag_d(flags, "period", cfg.update_period_sec);
    cfg.jitter_sec = flag_d(flags, "jitter", cfg.jitter_sec);
    cfg.blocking_cpu = !flags.contains("non-blocking");
    cfg.incremental_updates = flags.contains("incremental");
    cfg.seed = static_cast<std::uint64_t>(flag_i(flags, "seed", 1));
    NearnetScenario s{cfg};

    apps::PingConfig pc;
    pc.dst = s.dst().id();
    pc.count = flag_i(flags, "pings", 1000);
    apps::PingApp ping{s.src(), pc};
    ping.start(s.routing_start() + sim::SimTime::seconds(200));
    const double horizon = flag_d(flags, "max-time", 1500.0);
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
int run_audiocast(const ScenarioFlags& flags) {
    AudiocastConfig cfg;
    cfg.core_routers = flag_i(flags, "core-routers", cfg.core_routers);
    cfg.jitter_sec = flag_d(flags, "jitter", cfg.jitter_sec);
    cfg.background_pps = flag_d(flags, "bg-pps", cfg.background_pps);
    cfg.seed = static_cast<std::uint64_t>(flag_i(flags, "seed", 1));
    AudiocastScenario s{cfg};

    const double horizon = flag_d(flags, "max-time", 720.0);
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
// shared_lan_scenario.hpp for the mechanism under test.
SharedLanScenarioConfig parse_shared_lan_config(const ScenarioFlags& flags) {
    SharedLanScenarioConfig cfg;
    cfg.n = flag_i(flags, "n", cfg.n);
    cfg.tp = sim::SimTime::seconds(flag_d(flags, "tp", cfg.tp.sec()));
    cfg.tr = sim::SimTime::seconds(flag_d(flags, "tr", cfg.tr.sec()));
    cfg.tc = sim::SimTime::seconds(flag_d(flags, "tc", cfg.tc.sec()));
    const std::string queue = flag_s(flags, "queue", "droptail");
    const auto disc = net::elements::queue_disc_from_name(queue);
    if (!disc.has_value()) {
        throw std::invalid_argument{
            "shared_lan: unknown --queue '" + queue + "' (want red|droptail)"};
    }
    cfg.queue_disc = *disc;
    cfg.queue_packets = static_cast<std::size_t>(
        flag_i(flags, "queue-cap", static_cast<int>(cfg.queue_packets)));
    cfg.red.min_th = flag_d(flags, "red-min", cfg.red.min_th);
    cfg.red.max_th = flag_d(flags, "red-max", cfg.red.max_th);
    cfg.red.max_p = flag_d(flags, "red-maxp", cfg.red.max_p);
    cfg.red.weight = flag_d(flags, "red-weight", cfg.red.weight);
    cfg.bg_burst = flag_i(flags, "bg-burst", cfg.bg_burst);
    cfg.bg_period =
        sim::SimTime::seconds(flag_d(flags, "bg-period", cfg.bg_period.sec()));
    cfg.max_time =
        sim::SimTime::seconds(flag_d(flags, "max-time", cfg.max_time.sec()));
    cfg.seed = static_cast<std::uint64_t>(flag_i(flags, "seed", 1));
    cfg.monitor = flags.contains("monitor");
    cfg.sync_threshold = flag_d(flags, "sync-threshold", cfg.sync_threshold);
    cfg.sync_hysteresis = flag_d(flags, "sync-hysteresis", cfg.sync_hysteresis);
    if (flag_s(flags, "dispatch", "fast") == "virtual") {
        cfg.dispatch = net::elements::DispatchMode::Virtual;
    }
    return cfg;
}

/// Shared-LAN flags common to single runs and sweeps, recorded in every
/// manifest so a run is reconstructible from its artifact alone.
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

int run_shared_lan_trials(const ScenarioFlags& flags,
                          const SharedLanScenarioConfig& cfg, int trials,
                          std::size_t jobs);

int run_shared_lan(const ScenarioFlags& flags) {
    SharedLanScenarioConfig cfg = parse_shared_lan_config(flags);
    const int trials = cli::flag_trials(flags, 1);
    const std::size_t jobs = shared_lan_jobs(flags);
    if (trials > 1) {
        return run_shared_lan_trials(flags, cfg, trials, jobs);
    }

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
    const std::string out = flag_s(flags, "out");
    if (!out.empty()) {
        obs::Manifest m;
        m.tool = "scenario/shared_lan";
        m.description =
            "periodic updates on a congested CSMA/CD LAN (" +
            std::string{net::elements::queue_disc_name(cfg.queue_disc)} +
            " station queues)";
        m.seeds = {cfg.seed};
        set_shared_lan_manifest_config(m, cfg);
        m.set_config("elements.wire_spec", r.wire_spec);

        obs::MetricsRegistry reg;
        reg.add("lan.frames_offered", r.frames_offered);
        reg.add("lan.frames_delivered", r.frames_delivered);
        reg.add("lan.collisions", r.collisions);
        reg.add("lan.drops_queue", r.drops_queue_full);
        reg.add("agents.updates_sent", r.updates_sent);
        reg.add("agents.updates_heard", r.updates_heard);
        if (r.sync.has_value()) {
            // Same names the engine path publishes (finalize_metrics),
            // so sync.* readers work across both backends.
            const obs::SyncReport& s = *r.sync;
            reg.add("sync.rearms", s.rearms);
            reg.add("sync.transitions", s.transitions);
            reg.add("sync.coupling_edges",
                    static_cast<std::uint64_t>(r.sync_coupling.edge_count()));
            reg.set_gauge("sync.r_last", s.r_last);
            reg.set_gauge("sync.r_max", s.r_max);
            reg.set_gauge("sync.entropy_last", s.entropy_last);
            reg.set_gauge("sync.largest_fraction_last", s.largest_fraction_last);
            if (s.time_to_sync_sec >= 0.0) {
                reg.add("sync.synced_runs", 1);
                reg.observe("sync.time_to_sync_sec", s.time_to_sync_sec);
            }
        }
        m.metrics = reg.snapshot();
        m.sim_seconds = r.end_time_s;
        m.write(out);
    }
    return 0;
}

/// One sweep cell's counters folded into `reg` — called in submission
/// order, so the merged snapshot is jobs-invariant.
void merge_cell_metrics(obs::MetricsRegistry& reg,
                        const ScenarioSweepCell& cell) {
    const SharedLanScenarioResult& r = cell.result;
    reg.add("lan.frames_offered", r.frames_offered);
    reg.add("lan.frames_delivered", r.frames_delivered);
    reg.add("lan.collisions", r.collisions);
    reg.add("lan.drops_queue", r.drops_queue_full);
    reg.add("agents.updates_sent", r.updates_sent);
    reg.add("agents.updates_heard", r.updates_heard);
    reg.add("sweep.trace_events", cell.trace_events);
    if (r.full_sync_time_s.has_value()) {
        reg.add("sweep.synced_cells", 1);
        reg.observe("sweep.full_sync_time_sec", *r.full_sync_time_s);
    }
}

/// The per-cell result row shared by the --trials table and the sweep
/// table (the caller prints the leading buffer/load columns).
void print_cell_row(const ScenarioSweepCell& cell) {
    const SharedLanScenarioResult& r = cell.result;
    std::printf("%d,%llu,%.3f,%llu,%llu,%llu,%llu,%d,%s,%llu,0x%016llx\n",
                cell.trial, static_cast<unsigned long long>(cell.seed),
                r.end_time_s,
                static_cast<unsigned long long>(r.frames_delivered),
                static_cast<unsigned long long>(r.drops_queue_full),
                static_cast<unsigned long long>(r.updates_sent),
                static_cast<unsigned long long>(r.updates_heard),
                r.largest_cluster,
                r.full_sync_time_s ? std::to_string(*r.full_sync_time_s).c_str()
                                   : "none",
                static_cast<unsigned long long>(cell.trace_events),
                static_cast<unsigned long long>(cell.trace_digest));
}

int run_shared_lan_trials(const ScenarioFlags& flags,
                          const SharedLanScenarioConfig& cfg, int trials,
                          std::size_t jobs) {
    ScenarioSweepConfig sc;
    sc.base = cfg;
    sc.buffers = {cfg.queue_packets};
    sc.loads = {1.0};
    sc.trials = trials;
    sc.jobs = jobs;
    const ScenarioSweepResult sweep = run_scenario_sweep(sc);

    // Stdout carries no jobs/steals: `--jobs N` must be byte-identical
    // to `--jobs 1` (the repo-wide determinism contract).
    std::printf("scenario,shared_lan\n");
    std::printf("queue,%s\n", net::elements::queue_disc_name(cfg.queue_disc));
    std::printf("n,%d\n", cfg.n);
    std::printf("trials,%d\n", trials);
    std::printf("trial,seed,end_time_s,frames_delivered,drops_queue,"
                "updates_sent,updates_heard,largest_cluster,full_sync_time_s,"
                "trace_events,trace_digest\n");
    int synced = 0;
    double sim_seconds = 0.0;
    for (const ScenarioSweepCell& cell : sweep.cells) {
        print_cell_row(cell);
        synced += cell.result.full_sync_time_s.has_value() ? 1 : 0;
        sim_seconds += cell.result.end_time_s;
    }
    std::printf("synced_trials,%d\n", synced);
    std::printf("combined_digest,0x%016llx\n",
                static_cast<unsigned long long>(sweep.combined_digest));
    std::fprintf(stderr, "shared_lan: %d trials on %zu workers (%zu steals)\n",
                 trials, sweep.jobs, sweep.steals);

    const std::string out = flag_s(flags, "out");
    if (!out.empty()) {
        obs::Manifest m;
        m.tool = "scenario/shared_lan";
        m.description = "periodic updates on a congested CSMA/CD LAN, " +
                        std::to_string(trials) + " trials";
        for (const ScenarioSweepCell& cell : sweep.cells) {
            m.seeds.push_back(cell.seed);
        }
        m.jobs = sweep.jobs;
        set_shared_lan_manifest_config(m, cfg);
        m.set_config("trials", trials);
        char digest[32];
        std::snprintf(digest, sizeof digest, "0x%016llx",
                      static_cast<unsigned long long>(sweep.combined_digest));
        m.set_config("combined_digest", std::string{digest});
        obs::MetricsRegistry reg;
        for (const ScenarioSweepCell& cell : sweep.cells) {
            merge_cell_metrics(reg, cell);
        }
        m.metrics = reg.snapshot();
        m.sim_seconds = sim_seconds;
        m.write(out);
    }
    return 0;
}

ScenarioEntry builtin(std::string name, std::string summary,
                      std::string flags_help,
                      std::span<const std::string_view> flags,
                      std::function<int(const ScenarioFlags&)> run) {
    ScenarioEntry e;
    e.name = std::move(name);
    e.summary = std::move(summary);
    e.flags_help = std::move(flags_help);
    e.flags = flags;
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

} // namespace

int run_shared_lan_sweep(const ScenarioFlags& flags) {
    ScenarioSweepConfig sc;
    sc.base = parse_shared_lan_config(flags);
    sc.buffers = parse_buffer_list(
        flag_s(flags, "buffers", std::to_string(sc.base.queue_packets)));
    sc.loads = parse_load_list(flag_s(flags, "loads", "1"));
    sc.trials = cli::flag_trials(flags, 1);
    sc.jobs = shared_lan_jobs(flags);
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
        std::printf("%zu,%g,", cell.buffer, cell.load);
        print_cell_row(cell);
        synced += cell.result.full_sync_time_s.has_value() ? 1 : 0;
        sim_seconds += cell.result.end_time_s;
        transmissions += cell.result.frames_delivered;
    }
    std::printf("synced_cells,%d\n", synced);
    std::printf("transmissions_checksum,%llu\n",
                static_cast<unsigned long long>(transmissions));
    std::printf("combined_digest,0x%016llx\n",
                static_cast<unsigned long long>(sweep.combined_digest));
    std::fprintf(stderr,
                 "scenario sweep: %zu cells on %zu workers (%zu steals)\n",
                 sweep.cells.size(), sweep.jobs, sweep.steals);

    const std::string out = flag_s(flags, "out");
    if (!out.empty()) {
        obs::Manifest m;
        m.tool = "scenario/shared_lan_sweep";
        m.description =
            "buffer x load x trial grid of shared-LAN runs (" +
            std::string{net::elements::queue_disc_name(sc.base.queue_disc)} +
            " station queues)";
        m.seeds = {sc.base.seed};
        m.jobs = sweep.jobs;
        set_shared_lan_manifest_config(m, sc.base);
        m.set_config("buffers", flag_s(flags, "buffers",
                                       std::to_string(sc.base.queue_packets)));
        m.set_config("loads", flag_s(flags, "loads", "1"));
        m.set_config("trials", sc.trials);
        m.set_config("cells", static_cast<std::uint64_t>(sweep.cells.size()));
        char digest[32];
        std::snprintf(digest, sizeof digest, "0x%016llx",
                      static_cast<unsigned long long>(sweep.combined_digest));
        m.set_config("combined_digest", std::string{digest});
        obs::MetricsRegistry reg;
        for (const ScenarioSweepCell& cell : sweep.cells) {
            merge_cell_metrics(reg, cell);
        }
        m.metrics = reg.snapshot();
        m.sim_seconds = sim_seconds;
        m.write(out);
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
                          const ScenarioFlags& flags) const {
    const ScenarioEntry* entry = find(name);
    if (entry == nullptr) {
        throw std::invalid_argument{
            "unknown scenario '" + name +
            "' (run `routesync scenario list` for the table)"};
    }
    if (entry->is_builtin()) {
        return entry->run(flags);
    }
    // External: exec the standalone binary, forwarding the flags (minus
    // the dispatch-only --bin-dir) verbatim.
    std::string cmd = flag_s(flags, "bin-dir", ".") + "/" + entry->binary;
    for (const auto& [key, value] : flags) {
        if (key == "bin-dir") {
            continue;
        }
        cmd += " --" + key;
        if (value != "1") {
            cmd += " " + value;
        }
    }
    const int status = std::system(cmd.c_str()); // NOLINT(cert-env33-c)
    if (status < 0) {
        throw std::runtime_error{"scenario run: failed to exec " + cmd};
    }
    // The binary's own exit status (2 for a flag it rejects); 1 if a
    // signal ended it.
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

void register_builtin_scenarios() {
    ScenarioRegistry& reg = ScenarioRegistry::instance();
    if (reg.find("nearnet") != nullptr) {
        return; // already populated
    }
    reg.add(builtin(
        "nearnet",
        "Fig 1/2 testbed: pings through synchronized IGRP core routers",
        "--core-routers --filler-routes --period --jitter --pings "
        "--max-time --seed [--non-blocking] [--incremental]",
        kNearnetFlags, run_nearnet));
    reg.add(builtin(
        "audiocast",
        "Fig 3 testbed: audio outages under synchronized RIP storms",
        "--core-routers --jitter --bg-pps --max-time --seed",
        kAudiocastFlags, run_audiocast));
    reg.add(builtin(
        "shared_lan",
        "periodic updates on a congested CSMA/CD LAN; RED vs drop-tail "
        "station queues",
        "--queue red|droptail --n --tp --tr --tc --queue-cap --red-min "
        "--red-max --red-maxp --red-weight --bg-burst --bg-period "
        "--max-time --seed [--trials K [--jobs N]] [--dispatch fast|virtual] "
        "[--monitor [--sync-threshold R] [--sync-hysteresis H]] "
        "[--out MANIFEST]",
        kSharedLanFlags, run_shared_lan));
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
