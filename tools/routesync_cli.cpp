// routesync — command-line driver for the simulation and analysis APIs.
//
// Subcommands:
//   pm         run the Periodic Messages model, emit CSV
//   chain      evaluate the Markov chain (f, g, fraction unsynchronized)
//   sweep      fraction-unsynchronized sweep over Tr (CSV)
//   threshold  critical jitter / critical router count
//   f2         Monte-Carlo estimate of f(2)
//
// Examples:
//   routesync pm --n 20 --tp 121 --tr 0.1 --tc 0.11 --max-time 1e5 --rounds
//   routesync chain --n 20 --tp 121 --tr 0.11 --tc 0.11 --f2 19
//   routesync sweep --n 20 --tp 121 --tc 0.11 --from 0.5 --to 3 --step 0.05
//   routesync threshold --n 20 --tp 30 --tc 0.3
//   routesync f2 --n 20 --tp 121 --tr 0.1 --tc 0.11 --reps 20 --jobs 4
//
// `sweep` and `f2` accept --jobs N to fan independent work over N worker
// threads (default, and N = 0: hardware concurrency). Output is
// byte-identical for every jobs value. `sweep --sim-trials T` validates
// the chain against T pooled Periodic Messages simulations per grid
// point (work-stealing across the whole grid x trial task set).
//
// `pm` and `sweep` accept --trace FILE (JSONL event trace; for pm every
// timer/transmission event, for sweep one metric_sample per grid point)
// and --out FILE (a run manifest with config, metrics, and the trace
// hash).
//
// `trace` post-processes a recorded JSONL trace (summary, filter,
// export-chrome, replay-check); `analyze coupling` rebuilds the coupling
// graph from one; `scenario` lists, runs and sweeps the scenario
// registry. Each command's flags are one table in tools/flags.hpp;
// `routesync` with no arguments prints them all.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "core/trace_replay.hpp"
#include "markov/markov.hpp"
#include "obs/obs.hpp"
#include "obs/sync_monitor.hpp"
#include "obs/trace_analysis.hpp"
#include "obs/trace_reader.hpp"
#include "parallel/parallel.hpp"
#include "scenarios/registry.hpp"
#include "tools/flags.hpp"

using namespace routesync;

namespace {

using cli::Args;

/// The chain parameters; --f2 defaults to the diffusion estimate, and
/// `f2` (the command) reads no --f2.
markov::ChainParams chain_params(const Args& args, bool f2_flag = true) {
    markov::ChainParams p;
    p.n = args.integer("n", 20);
    p.tp_sec = args.real("tp", 121.0);
    p.tr_sec = args.real("tr", 0.11);
    p.tc_sec = args.real("tc", 0.11);
    const double f2 = markov::f2_diffusion_estimate(p.n, p.tp_sec, p.tr_sec);
    p.f2_rounds = f2_flag ? args.real("f2", f2) : f2;
    return p;
}

/// --jobs: absent or 0 is the hardware concurrency.
std::size_t jobs_flag(const Args& args) {
    const auto jobs = args.integer<std::size_t>("jobs", 0);
    return jobs == 0 ? parallel::hardware_jobs() : jobs;
}

int cmd_pm(const Args& args) {
    core::ExperimentConfig cfg;
    cfg.params.n = args.integer("n", 20);
    cfg.params.tp = sim::SimTime::seconds(args.real("tp", 121.0));
    cfg.params.tr = sim::SimTime::seconds(args.real("tr", 0.11));
    cfg.params.tc = sim::SimTime::seconds(args.real("tc", 0.11));
    cfg.params.seed = args.seed("seed", 1);
    if (args.flag("sync-start")) {
        cfg.params.start = core::StartCondition::Synchronized;
    }
    cfg.params.reset_at_expiry = args.flag("reset-at-expiry");
    // --delta X: fixed distinct periods Tp + k*X (the Section 6 open
    // question; combine with --tr 0 for zero jitter).
    const double delta = args.real("delta", 0.0);
    if (delta != 0.0) {
        for (int k = 0; k < cfg.params.n; ++k) {
            cfg.params.per_node_tp.push_back(cfg.params.tp.sec() + delta * k);
        }
    }
    if (args.flag("half-period")) {
        const auto tp = cfg.params.tp;
        cfg.make_policy = [tp] {
            return std::make_unique<core::HalfPeriodJitter>(tp);
        };
    }
    cfg.max_time = sim::SimTime::seconds(args.real("max-time", 1e5));
    cfg.stop_on_full_sync = args.flag("stop-on-sync");
    cfg.stop_on_breakup_threshold = args.integer("stop-on-breakup", 0);
    cfg.monitor = args.flag("monitor");
    cfg.sync_threshold = args.real("sync-threshold", cfg.sync_threshold);
    cfg.sync_hysteresis = args.real("sync-hysteresis", cfg.sync_hysteresis);
    const bool want_rounds = args.flag("rounds");
    const bool want_transmits = args.flag("transmits");
    cfg.record_rounds = want_rounds;
    cfg.transmit_stride = want_transmits ? args.integer("stride", 1) : 0;

    obs::RunContext ctx;
    const std::string trace = args.text("trace");
    const std::string out = args.text("out");
    if (!trace.empty()) {
        ctx.trace_to_file(trace);
    }
    if (!trace.empty() || !out.empty()) {
        cfg.obs = &ctx;
        cfg.sample_every = args.real("sample-every", 0.0);
        obs::Manifest& m = ctx.manifest();
        m.tool = "routesync_cli pm";
        m.description = "Periodic Messages model run";
        m.seeds.assign(1, cfg.params.seed);
        m.set_config("n", cfg.params.n);
        m.set_config("tp_sec", cfg.params.tp.sec());
        m.set_config("tr_sec", cfg.params.tr.sec());
        m.set_config("tc_sec", cfg.params.tc.sec());
        m.set_config("max_time_sec", cfg.max_time.sec());
        if (cfg.monitor) {
            m.set_config("monitor", true);
            m.set_config("sync_threshold", cfg.sync_threshold);
            m.set_config("sync_hysteresis", cfg.sync_hysteresis);
        }
    }

    const auto r = core::run_experiment(cfg);
    if (cfg.obs != nullptr) {
        if (out.empty()) {
            ctx.finish(r.end_time_sec);
        } else {
            ctx.write_manifest(out, r.end_time_sec);
        }
    }

    if (want_transmits) {
        std::printf("time_s,node,offset_s\n");
        for (const auto& t : r.transmits) {
            std::printf("%.6f,%d,%.6f\n", t.time_sec, t.node, t.offset_sec);
        }
    } else if (want_rounds) {
        std::printf("round,end_time_s,largest_cluster\n");
        for (const auto& round : r.rounds) {
            std::printf("%llu,%.3f,%d\n",
                        static_cast<unsigned long long>(round.round),
                        round.end_time.sec(), round.largest);
        }
    } else {
        std::printf("rounds,%llu\n",
                    static_cast<unsigned long long>(r.rounds_closed));
        std::printf("transmissions,%llu\n",
                    static_cast<unsigned long long>(r.total_transmissions));
        std::printf("full_sync_time_s,%s\n",
                    r.full_sync_time_sec
                        ? std::to_string(*r.full_sync_time_sec).c_str()
                        : "none");
        std::printf("breakup_time_s,%s\n",
                    r.breakup_time_sec
                        ? std::to_string(*r.breakup_time_sec).c_str()
                        : "none");
        std::printf("rounds_unsynchronized,%llu\n",
                    static_cast<unsigned long long>(r.rounds_unsynchronized));
    }
    return 0;
}

int cmd_chain(const Args& args) {
    const markov::FJChain chain{chain_params(args)};
    const auto f = chain.f_rounds();
    const auto g = chain.g_rounds();
    std::printf("state,p_down,p_up,f_rounds,f_seconds,g_rounds,g_seconds\n");
    for (int i = 1; i <= chain.params().n; ++i) {
        const auto s = static_cast<std::size_t>(i);
        std::printf("%d,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n", i, chain.p_down(i),
                    chain.p_up(i), f[s], f[s] * chain.round_seconds(), g[s],
                    g[s] * chain.round_seconds());
    }
    std::fprintf(stderr, "fraction_unsynchronized %.6g\n",
                 chain.fraction_unsynchronized());
    return 0;
}

int cmd_sweep(const Args& args) {
    markov::ChainParams base = chain_params(args);
    const double from = args.real("from", 0.5); // in units of Tc
    const double to = args.real("to", 3.0);
    const double step = args.real("step", 0.05);
    const std::vector<double> grid = cli::sweep_grid(from, to, step);
    const std::size_t jobs = jobs_flag(args);
    // --sim-trials T (> 0) runs T Periodic Messages simulations per grid
    // point alongside the chain and appends a sim_frac_unsync column: the
    // mean fraction of closed rounds that were fully unsynchronized,
    // measured over --sim-max-time seconds. Default output is unchanged.
    const int sim_trials = args.integer("sim-trials", 0);
    const double sim_max_time = args.real("sim-max-time", 1e4);
    const auto sim_seed = args.seed("seed", 1);
    obs::RunContext ctx;
    const std::string trace = args.text("trace");
    const std::string out = args.text("out");
    if (!trace.empty()) {
        ctx.trace_to_file(trace);
    }
    struct Row {
        double tr_s, frac, fn_s, g1_s;
    };
    const auto rows = parallel::map_index<Row>(
        grid.size(), jobs, [&](std::size_t i) {
            markov::ChainParams p = base;
            p.tr_sec = grid[i] * base.tc_sec;
            p.f2_rounds = markov::f2_diffusion_estimate(p.n, p.tp_sec, p.tr_sec);
            const markov::FJChain chain{p};
            return Row{p.tr_sec, chain.fraction_unsynchronized(),
                       chain.time_to_synchronize_seconds(),
                       chain.time_to_break_up_seconds()};
        });
    // All (grid point x trial) simulations pool into one work-stealing
    // task set; the results come back in submission (grid-major) order,
    // so the CSV is byte-identical for every --jobs value.
    std::vector<double> sim_frac(grid.size(), 0.0);
    double sim_seconds = 0.0; // the trials' end times, summed
    if (sim_trials > 0) {
        const auto trials = static_cast<std::size_t>(sim_trials);
        parallel::SweepScheduler scheduler{{.jobs = jobs}};
        const auto sims = scheduler.run_generated(
            grid.size() * trials, [&](std::size_t task) {
                core::ExperimentConfig cfg;
                cfg.params.n = base.n;
                cfg.params.tp = sim::SimTime::seconds(base.tp_sec);
                cfg.params.tc = sim::SimTime::seconds(base.tc_sec);
                cfg.params.tr =
                    sim::SimTime::seconds(grid[task / trials] * base.tc_sec);
                cfg.params.seed = parallel::derive_seed(sim_seed, task);
                cfg.max_time = sim::SimTime::seconds(sim_max_time);
                return cfg;
            });
        for (std::size_t i = 0; i < grid.size(); ++i) {
            double total = 0.0;
            for (std::size_t t = 0; t < trials; ++t) {
                const auto& r = sims[i * trials + t];
                if (r.rounds_closed > 0) {
                    total += static_cast<double>(r.rounds_unsynchronized) /
                             static_cast<double>(r.rounds_closed);
                }
            }
            sim_frac[i] = total / static_cast<double>(trials);
        }
        for (const core::ExperimentResult& r : sims) {
            sim_seconds += r.end_time_sec;
        }
    }
    std::printf(sim_trials > 0
                    ? "tr_over_tc,tr_s,fraction_unsync,f_n_s,g_1_s,sim_frac_unsync\n"
                    : "tr_over_tc,tr_s,fraction_unsync,f_n_s,g_1_s\n");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        std::printf("%.4f,%.6g,%.6g,%.6g,%.6g", grid[i], rows[i].tr_s,
                    rows[i].frac, rows[i].fn_s, rows[i].g1_s);
        if (sim_trials > 0) {
            std::printf(",%.6g", sim_frac[i]);
        }
        std::printf("\n");
        // One metric_sample per grid point, in grid order: a carries the
        // grid index, b the unsynchronized fraction, x the swept Tr
        // (seconds). There is no simulation clock in a chain sweep, so t
        // stays 0 — keeping the "t is monotone simulation time" contract
        // intact. Deterministic for every --jobs value because the sweep
        // results come back in submission order.
        if (obs::Tracer* tr = ctx.tracer()) {
            tr->emit(obs::TraceEventType::MetricSample, sim::SimTime::zero(), -1,
                     static_cast<std::int64_t>(i), rows[i].frac, rows[i].tr_s);
        }
        ctx.metrics().observe("sweep.fraction_unsync", rows[i].frac);
    }
    if (!trace.empty() || !out.empty()) {
        obs::Manifest& m = ctx.manifest();
        m.tool = "routesync_cli sweep";
        m.description = "fraction-unsynchronized sweep over Tr";
        m.jobs = jobs;
        m.set_config("n", base.n);
        m.set_config("tp_sec", base.tp_sec);
        m.set_config("tc_sec", base.tc_sec);
        m.set_config("from_tr_over_tc", from);
        m.set_config("to_tr_over_tc", to);
        m.set_config("step", step);
        if (sim_trials > 0) {
            m.set_config("sim_trials", sim_trials);
            m.set_config("sim_max_time_sec", sim_max_time);
        }
        if (out.empty()) {
            ctx.finish(sim_seconds);
        } else {
            ctx.write_manifest(out, sim_seconds);
        }
    }
    return 0;
}

int cmd_threshold(const Args& args) {
    const markov::ChainParams p = chain_params(args);
    const double tr_star = markov::critical_tr_seconds(p);
    std::printf("critical_tr_s,%.6g\n", tr_star);
    std::printf("critical_tr_over_tc,%.4f\n", tr_star / p.tc_sec);
    std::printf("rule_10tc_s,%.6g\n", 10.0 * p.tc_sec);
    std::printf("rule_half_period_s,%.6g\n", 0.5 * p.tp_sec);
    std::printf("critical_n,%d\n", markov::critical_n(p, args.integer("n-max", 200)));
    return 0;
}

int cmd_f2(const Args& args) {
    const markov::ChainParams p = chain_params(args, /*f2_flag=*/false);
    const auto est = markov::estimate_f2(
        p, args.integer("reps", 20), args.seed("seed", 1),
        /*max_rounds_per_rep=*/1e6,
        jobs_flag(args));
    std::printf("f2_rounds,%.4f\n", est.mean_rounds);
    std::printf("f2_seconds,%.2f\n", est.mean_seconds);
    std::printf("completed,%d\n", est.completed);
    std::printf("censored,%d\n", est.censored);
    std::printf("diffusion_estimate_rounds,%.4f\n",
                markov::f2_diffusion_estimate(p.n, p.tp_sec, p.tr_sec));
    return 0;
}

std::vector<obs::TraceEvent> load_trace(const Args& args) {
    const std::string in = args.text("in");
    if (in.empty()) {
        throw std::invalid_argument{"trace: --in FILE is required"};
    }
    return obs::TraceReader::read_all(in);
}

/// Writes to --out when given, stdout otherwise.
void emit_text(const Args& args, const std::string& text) {
    const std::string out = args.text("out");
    if (out.empty()) {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return;
    }
    std::ofstream f{out};
    if (!f) {
        throw std::runtime_error{"trace: cannot open " + out};
    }
    f << text;
}

std::string fmt_time_to_sync(double t) {
    if (t < 0.0) {
        return "never";
    }
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.6f s", t);
    return buf;
}

int cmd_trace_summary(const Args& args) {
    const auto events = load_trace(args);
    obs::SummaryOptions options;
    options.round_length = args.real("round", 0.0);
    options.phase_bins = args.integer("bins", 20);
    const obs::TraceSummary summary = obs::summarize(events, options);
    const std::string report = obs::format_summary(summary);
    std::fwrite(report.data(), 1, report.size(), stdout);

    // Traces from --monitor runs carry a sync_config event; recompute the
    // streaming analysis so the summary reports r(t) and the transition
    // time without needing the original run.
    if (summary.by_type.contains(
            obs::trace_event_name(obs::TraceEventType::SyncConfig))) {
        const core::TraceReplay replay = core::replay_trace(events);
        const core::SyncReplay& sync = *replay.sync;
        std::printf("\nsynchronization (recomputed from trace):\n");
        std::printf("  r: last %.6g  max %.6g  in_sync %s\n", sync.report.r_last,
                    sync.report.r_max, sync.report.in_sync ? "yes" : "no");
        std::printf("  transitions: %llu  time_to_sync: %s\n",
                    static_cast<unsigned long long>(sync.report.transitions),
                    fmt_time_to_sync(sync.report.time_to_sync_sec).c_str());
        std::printf("  entropy (last round): %.6g  largest fraction: %.6g\n",
                    sync.report.entropy_last, sync.report.largest_fraction_last);
        std::printf("  coupling: %zu edges, total weight %llu over %zu nodes\n",
                    sync.coupling.edge_count(),
                    static_cast<unsigned long long>(sync.coupling.total_weight()),
                    sync.coupling.node_count());
    }
    return 0;
}

int cmd_trace_filter(const Args& args) {
    const auto events = load_trace(args);
    obs::FilterOptions options;
    // --type a,b,c — comma-separated wire names.
    if (const std::string types = args.text("type"); !types.empty()) {
        std::istringstream ss{types};
        std::string name;
        while (std::getline(ss, name, ',')) {
            const auto type = obs::trace_event_type_from_name(name);
            if (!type.has_value()) {
                throw std::invalid_argument{"trace filter: unknown event type '" +
                                            name + "'"};
            }
            options.types.push_back(*type);
        }
    }
    if (args.has("node")) {
        options.node = args.integer("node", 0);
    }
    if (args.has("from")) {
        options.t_min = args.real("from", 0.0);
    }
    if (args.has("to")) {
        options.t_max = args.real("to", 0.0);
    }
    std::string out;
    for (const obs::TraceEvent& e : obs::filter_events(events, options)) {
        out += obs::trace_event_jsonl(e);
        out += '\n';
    }
    emit_text(args, out);
    return 0;
}

int cmd_trace_export_chrome(const Args& args) {
    emit_text(args, obs::export_chrome(load_trace(args)));
    return 0;
}

int cmd_trace_replay_check(const Args& args) {
    const auto events = load_trace(args);
    const auto replay = core::replay_trace(
        events, {.tolerance = sim::SimTime::seconds(args.real("tolerance", 1e-6))});
    std::fprintf(stderr,
                 "replay-check: n=%d, %llu timer_set fed (%llu initial "
                 "skipped), %zu cluster events recomputed\n",
                 replay.n,
                 static_cast<unsigned long long>(replay.timer_sets_fed),
                 static_cast<unsigned long long>(replay.initial_skipped),
                 replay.replayed.size());
    if (args.flag("print")) {
        const std::string series = core::format_cluster_series(replay.replayed);
        std::fwrite(series.data(), 1, series.size(), stdout);
    }

    int failures = 0;
    const std::string vs_recorded =
        core::diff_cluster_series(replay.replayed, replay.recorded);
    if (replay.recorded.empty()) {
        std::fprintf(stderr,
                     "replay-check: trace has no cluster_change events to "
                     "compare against\n");
    } else if (!vs_recorded.empty()) {
        std::fprintf(stderr, "replay-check: MISMATCH vs recorded series: %s\n",
                     vs_recorded.c_str());
        ++failures;
    } else {
        std::fprintf(stderr,
                     "replay-check: OK — replayed series matches the %zu "
                     "recorded cluster_change events\n",
                     replay.recorded.size());
    }

    // --expect FILE: diff against an externally recorded series (the
    // format fig04 --clusters-out writes: "time size" per line).
    if (const std::string expect = args.text("expect"); !expect.empty()) {
        std::ifstream f{expect};
        if (!f) {
            throw std::runtime_error{"trace replay-check: cannot open " + expect};
        }
        std::ostringstream buf;
        buf << f.rdbuf();
        if (buf.str() != core::format_cluster_series(replay.replayed)) {
            std::fprintf(stderr,
                         "replay-check: MISMATCH vs expected series %s\n",
                         expect.c_str());
            ++failures;
        } else {
            std::fprintf(stderr,
                         "replay-check: OK — replayed series matches %s "
                         "byte-for-byte\n",
                         expect.c_str());
        }
    }

    // Monitored traces (sync_config present): recompute r(t), the
    // detector transitions, and the coupling graph from the trace, and
    // hold them to the recorded sync_transition / coupling_edge events
    // bit for bit.
    if (replay.sync.has_value()) {
        const core::SyncReplay& sync = *replay.sync;
        std::fprintf(stderr,
                     "replay-check: sync replay — r_last=%.17g r_max=%.17g "
                     "transitions=%zu time_to_sync=%s\n",
                     sync.report.r_last, sync.report.r_max,
                     sync.transitions.size(),
                     fmt_time_to_sync(sync.report.time_to_sync_sec).c_str());
        if (!sync.transitions_match) {
            std::fprintf(stderr,
                         "replay-check: MISMATCH — recomputed %zu transitions "
                         "vs %zu recorded (or values differ)\n",
                         sync.transitions.size(), sync.recorded.size());
            ++failures;
        } else {
            std::fprintf(stderr,
                         "replay-check: OK — %zu recomputed sync transitions "
                         "match the recorded events exactly\n",
                         sync.transitions.size());
        }
        if (!sync.edges_match) {
            std::fprintf(stderr,
                         "replay-check: MISMATCH — recomputed coupling graph "
                         "(%zu edges) differs from the %zu recorded "
                         "coupling_edge events\n",
                         sync.coupling.edge_count(), sync.recorded_edges.size());
            ++failures;
        } else {
            std::fprintf(stderr,
                         "replay-check: OK — coupling graph matches the %zu "
                         "recorded coupling_edge events\n",
                         sync.coupling.edge_count());
        }
    }
    return failures == 0 ? 0 : 1;
}

// `analyze coupling` recomputes the causal coupling graph from a trace
// (monitored or not — an unmonitored trace needs --round SEC for the
// phase modulus) and exports it as DOT and/or JSON. Exits 1 when the
// graph fails its internal cross-checks: the edge-weight total must
// equal the number of re-arms fed, and when the trace carries recorded
// coupling_edge events the recomputed graph must match them exactly.
int cmd_analyze_coupling(const Args& args) {
    const auto replay =
        core::replay_trace(load_trace(args), {.round_sec = args.real("round", 0.0)});
    if (!replay.sync.has_value()) {
        throw std::runtime_error{
            "analyze coupling: no round length available (trace has no "
            "sync_config event; pass --round)"};
    }
    const core::SyncReplay& sync = *replay.sync;
    const obs::CouplingGraph& g = sync.coupling;

    int failures = 0;
    if (g.total_weight() != replay.timer_sets_fed) {
        std::fprintf(stderr,
                     "analyze coupling: MISMATCH — edge-weight total %llu != "
                     "%llu re-arms fed from the trace\n",
                     static_cast<unsigned long long>(g.total_weight()),
                     static_cast<unsigned long long>(replay.timer_sets_fed));
        ++failures;
    }
    if (!sync.recorded_edges.empty() && !sync.edges_match) {
        std::fprintf(stderr,
                     "analyze coupling: MISMATCH — recomputed graph (%zu "
                     "edges) differs from the %zu recorded coupling_edge "
                     "events\n",
                     g.edge_count(), sync.recorded_edges.size());
        ++failures;
    }
    std::fprintf(stderr,
                 "analyze coupling: %zu nodes, %zu edges, total weight %llu "
                 "(%llu re-arms fed, %llu initial arms skipped)%s\n",
                 g.node_count(), g.edge_count(),
                 static_cast<unsigned long long>(g.total_weight()),
                 static_cast<unsigned long long>(replay.timer_sets_fed),
                 static_cast<unsigned long long>(replay.initial_skipped),
                 !sync.recorded_edges.empty() && sync.edges_match
                     ? " — matches the recorded coupling_edge events"
                     : "");

    const std::string dot = args.text("dot");
    const std::string json = args.text("json");
    if (!dot.empty()) {
        std::ofstream f{dot};
        if (!f) {
            throw std::runtime_error{"analyze coupling: cannot open " + dot};
        }
        f << g.to_dot();
    }
    if (!json.empty()) {
        std::ofstream f{json};
        if (!f) {
            throw std::runtime_error{"analyze coupling: cannot open " + json};
        }
        f << g.to_json() << '\n';
    }
    if (args.flag("print") || (dot.empty() && json.empty())) {
        const std::string text = g.to_dot();
        std::fwrite(text.data(), 1, text.size(), stdout);
    }
    return failures == 0 ? 0 : 1;
}

// `scenario list` prints the registry table with each builtin's flags;
// `scenario run <name> [--flags]` dispatches through it. Builtins run
// in-process; figure and example binaries run relative to --bin-dir
// (default: the build root, inferred from this binary's own path —
// tools/ and bench/ are siblings).
int cmd_scenario(int argc, char** argv) {
    scenarios::register_builtin_scenarios();
    const auto& registry = scenarios::ScenarioRegistry::instance();
    const std::string action = argc < 3 ? "" : argv[2];
    if (action == "list") {
        std::printf("%-18s %-8s %s\n", "name", "kind", "summary");
        for (const auto& e : registry.entries()) {
            std::printf("%-18s %-8s %s\n", e.name.c_str(),
                        e.is_builtin() ? "builtin" : "external",
                        e.summary.c_str());
            if (!e.flags.empty()) {
                std::printf("%-18s %-8s   flags: %s\n", "", "",
                            cli::usage(e.flags, 37).c_str());
            }
        }
        return 0;
    }
    if ((action == "run" || action == "sweep") && argc < 4) {
        throw std::invalid_argument{"scenario " + action + ": need a scenario name"};
    }
    const std::vector<std::string> tokens(argv + std::min(argc, 4), argv + argc);
    if (action == "run") {
        // argv[0] is <build>/tools/routesync; the figure and example
        // binaries live in <build>/bench and <build>/examples.
        const std::string self = argv[0];
        const auto slash = self.find_last_of('/');
        return registry.run(
            argv[3], tokens,
            (slash == std::string::npos ? std::string{"."} : self.substr(0, slash)) +
                "/..");
    }
    if (action == "sweep") {
        if (std::string{argv[3]} != "shared_lan") {
            throw std::invalid_argument{
                "scenario sweep: only 'shared_lan' is sweepable, got '" +
                std::string{argv[3]} + "'"};
        }
        return scenarios::run_shared_lan_sweep(cli::parse(
            tokens, {scenarios::kSharedLanTable, scenarios::kSweepAxesTable}));
    }
    throw std::invalid_argument{
        "scenario: need an action (list|run NAME|sweep NAME), got '" + action + "'"};
}

/// Every command with an action-free flag table: its name as typed
/// ("pm", "trace summary"), its flags and its runner.
struct Command {
    std::string_view name;
    cli::Table flags;
    int (*run)(const Args&);
};

constexpr Command kCommands[] = {
    {"pm", cli::kPmTable, cmd_pm},
    {"chain", cli::kChainTable, cmd_chain},
    {"sweep", cli::kSweepTable, cmd_sweep},
    {"threshold", cli::kThresholdTable, cmd_threshold},
    {"f2", cli::kF2Table, cmd_f2},
    {"trace summary", cli::kTraceSummaryTable, cmd_trace_summary},
    {"trace filter", cli::kTraceFilterTable, cmd_trace_filter},
    {"trace export-chrome", cli::kTraceExportChromeTable, cmd_trace_export_chrome},
    {"trace replay-check", cli::kTraceReplayCheckTable, cmd_trace_replay_check},
    {"analyze coupling", cli::kAnalyzeCouplingTable, cmd_analyze_coupling},
};

void usage() {
    std::fprintf(stderr, "usage: routesync <command> [--flag value]...\n");
    for (const Command& c : kCommands) {
        std::fprintf(stderr, "  %-20.*s %s\n", static_cast<int>(c.name.size()),
                     c.name.data(), cli::usage({c.flags}, 23).c_str());
    }
    std::fprintf(stderr,
                 "  scenario list        every scenario, with each builtin's flags\n"
                 "  scenario run NAME    [--bin-dir DIR] and NAME's flags\n"
                 "  scenario sweep shared_lan  shared_lan's flags but the "
                 "monitor's, and\n"
                 "                       %s\n"
                 "A boolean flag takes no value; every other flag needs one. A flag\n"
                 "the command does not declare, or a malformed value, exits 2.\n"
                 "--jobs N: worker threads (0: hardware concurrency); output is\n"
                 "byte-identical for every N.\n",
                 cli::usage({scenarios::kSweepAxesTable}, 23).c_str());
}

} // namespace

int main(int argc, char** argv) {
    const std::string cmd = argc < 2 ? "" : argv[1];
    const bool has_action = cmd == "trace" || cmd == "analyze";
    try {
        if (cmd == "scenario") {
            return cmd_scenario(argc, argv);
        }
        const std::string name = has_action && argc > 2 ? cmd + " " + argv[2] : cmd;
        for (const Command& c : kCommands) {
            if (c.name != name) {
                continue;
            }
            const std::vector<std::string> tokens(argv + (has_action ? 3 : 2),
                                                  argv + argc);
            Args args;
            try {
                args = cli::parse(tokens, {c.flags});
            } catch (const std::invalid_argument& e) {
                std::fprintf(stderr, "error: %s\nusage: routesync %s\n  %s\n", e.what(),
                             name.c_str(), cli::usage({c.flags}, 2).c_str());
                return 2;
            }
            return c.run(args);
        }
        if (has_action) {
            throw std::invalid_argument{
                cmd + ": need an action (" +
                (cmd == "trace" ? "summary|filter|export-chrome|replay-check"
                                : "coupling") +
                ")" + (argc > 2 ? ", got '" + std::string{argv[2]} + "'" : "")};
        }
    } catch (const std::invalid_argument& e) {
        // A rejected flag or value is a usage error, as for every command.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return has_action || cmd == "scenario" ? 2 : 1;
    }
    usage();
    return 2;
}
