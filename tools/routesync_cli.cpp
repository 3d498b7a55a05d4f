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
// `trace` post-processes a recorded JSONL trace:
//   routesync trace summary      --in run.jsonl [--round SEC] [--bins N]
//   routesync trace filter       --in run.jsonl [--type a,b] [--node N]
//                                [--from T] [--to T] [--out FILE]
//   routesync trace export-chrome --in run.jsonl [--out FILE]
//   routesync trace replay-check --in run.jsonl [--tolerance SEC]
//                                [--expect FILE] [--print]
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

using cli::flag_b;
using cli::flag_d;
using cli::flag_i;
using cli::flag_jobs;
using cli::flag_s;
using cli::Flags;

markov::ChainParams chain_params(const Flags& flags) {
    markov::ChainParams p;
    p.n = flag_i(flags, "n", 20);
    p.tp_sec = flag_d(flags, "tp", 121.0);
    p.tr_sec = flag_d(flags, "tr", 0.11);
    p.tc_sec = flag_d(flags, "tc", 0.11);
    p.f2_rounds = flag_d(flags, "f2",
                         markov::f2_diffusion_estimate(p.n, p.tp_sec, p.tr_sec));
    return p;
}

int cmd_pm(const Flags& flags) {
    cli::reject_unknown_flags(flags, cli::kPmFlags);
    core::ExperimentConfig cfg;
    cfg.params.n = flag_i(flags, "n", 20);
    cfg.params.tp = sim::SimTime::seconds(flag_d(flags, "tp", 121.0));
    cfg.params.tr = sim::SimTime::seconds(flag_d(flags, "tr", 0.11));
    cfg.params.tc = sim::SimTime::seconds(flag_d(flags, "tc", 0.11));
    cfg.params.seed = static_cast<std::uint64_t>(flag_i(flags, "seed", 1));
    if (flag_b(flags, "sync-start")) {
        cfg.params.start = core::StartCondition::Synchronized;
    }
    cfg.params.reset_at_expiry = flag_b(flags, "reset-at-expiry");
    // --delta X: fixed distinct periods Tp + k*X (the Section 6 open
    // question; combine with --tr 0 for zero jitter).
    const double delta = flag_d(flags, "delta", 0.0);
    if (delta != 0.0) {
        for (int k = 0; k < cfg.params.n; ++k) {
            cfg.params.per_node_tp.push_back(cfg.params.tp.sec() + delta * k);
        }
    }
    if (flag_b(flags, "half-period")) {
        const auto tp = cfg.params.tp;
        cfg.make_policy = [tp] {
            return std::make_unique<core::HalfPeriodJitter>(tp);
        };
    }
    cfg.max_time = sim::SimTime::seconds(flag_d(flags, "max-time", 1e5));
    cfg.stop_on_full_sync = flag_b(flags, "stop-on-sync");
    cfg.stop_on_breakup_threshold = flag_i(flags, "stop-on-breakup", 0);
    cfg.monitor = flag_b(flags, "monitor");
    cfg.sync_threshold = flag_d(flags, "sync-threshold", cfg.sync_threshold);
    cfg.sync_hysteresis = flag_d(flags, "sync-hysteresis", cfg.sync_hysteresis);
    const bool want_rounds = flag_b(flags, "rounds");
    const bool want_transmits = flag_b(flags, "transmits");
    cfg.record_rounds = want_rounds;
    cfg.transmit_stride = want_transmits ? flag_i(flags, "stride", 1) : 0;

    obs::RunContext ctx;
    const std::string trace = flag_s(flags, "trace");
    const std::string out = flag_s(flags, "out");
    if (!trace.empty()) {
        ctx.trace_to_file(trace);
    }
    if (!trace.empty() || !out.empty()) {
        cfg.obs = &ctx;
        cfg.sample_every = flag_d(flags, "sample-every", 0.0);
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

int cmd_chain(const Flags& flags) {
    cli::reject_unknown_flags(flags, cli::kChainFlags);
    const markov::FJChain chain{chain_params(flags)};
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

int cmd_sweep(const Flags& flags) {
    cli::reject_unknown_flags(flags, cli::kSweepFlags);
    markov::ChainParams base = chain_params(flags);
    const double from = flag_d(flags, "from", 0.5); // in units of Tc
    const double to = flag_d(flags, "to", 3.0);
    const double step = flag_d(flags, "step", 0.05);
    const std::vector<double> grid = cli::sweep_grid(from, to, step);
    const std::size_t jobs = flag_jobs(flags, parallel::hardware_jobs());
    // --sim-trials T (> 0) runs T Periodic Messages simulations per grid
    // point alongside the chain and appends a sim_frac_unsync column: the
    // mean fraction of closed rounds that were fully unsynchronized,
    // measured over --sim-max-time seconds. Default output is unchanged.
    const int sim_trials = cli::flag_count(flags, "sim-trials", 0, 0);
    const double sim_max_time = flag_d(flags, "sim-max-time", 1e4);
    const auto sim_seed = static_cast<std::uint64_t>(flag_i(flags, "seed", 1));
    obs::RunContext ctx;
    const std::string trace = flag_s(flags, "trace");
    const std::string out = flag_s(flags, "out");
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
            ctx.finish(0.0);
        } else {
            ctx.write_manifest(out, 0.0);
        }
    }
    return 0;
}

int cmd_threshold(const Flags& flags) {
    cli::reject_unknown_flags(flags, cli::kThresholdFlags);
    const markov::ChainParams p = chain_params(flags);
    const double tr_star = markov::critical_tr_seconds(p);
    std::printf("critical_tr_s,%.6g\n", tr_star);
    std::printf("critical_tr_over_tc,%.4f\n", tr_star / p.tc_sec);
    std::printf("rule_10tc_s,%.6g\n", 10.0 * p.tc_sec);
    std::printf("rule_half_period_s,%.6g\n", 0.5 * p.tp_sec);
    std::printf("critical_n,%d\n", markov::critical_n(p, flag_i(flags, "n-max", 200)));
    return 0;
}

int cmd_f2(const Flags& flags) {
    cli::reject_unknown_flags(flags, cli::kF2Flags);
    const markov::ChainParams p = chain_params(flags);
    const auto est = markov::estimate_f2(
        p, flag_i(flags, "reps", 20),
        static_cast<std::uint64_t>(flag_i(flags, "seed", 1)),
        /*max_rounds_per_rep=*/1e6,
        flag_jobs(flags, parallel::hardware_jobs()));
    std::printf("f2_rounds,%.4f\n", est.mean_rounds);
    std::printf("f2_seconds,%.2f\n", est.mean_seconds);
    std::printf("completed,%d\n", est.completed);
    std::printf("censored,%d\n", est.censored);
    std::printf("diffusion_estimate_rounds,%.4f\n",
                markov::f2_diffusion_estimate(p.n, p.tp_sec, p.tr_sec));
    return 0;
}

std::vector<obs::TraceEvent> load_trace(const Flags& flags) {
    const std::string in = flag_s(flags, "in");
    if (in.empty()) {
        throw std::invalid_argument{"trace: --in FILE is required"};
    }
    return obs::TraceReader::read_all(in);
}

/// Writes to --out when given, stdout otherwise.
void emit_text(const Flags& flags, const std::string& text) {
    const std::string out = flag_s(flags, "out");
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

bool has_sync_config(const std::vector<obs::TraceEvent>& events) {
    for (const obs::TraceEvent& e : events) {
        if (e.type == obs::TraceEventType::SyncConfig) {
            return true;
        }
    }
    return false;
}

int cmd_trace_summary(const Flags& flags) {
    cli::reject_unknown_flags(flags, cli::kTraceSummaryFlags);
    const auto events = load_trace(flags);
    obs::SummaryOptions options;
    options.round_length = flag_d(flags, "round", 0.0);
    options.phase_bins = flag_i(flags, "bins", 20);
    const std::string report = obs::format_summary(obs::summarize(events, options));
    std::fwrite(report.data(), 1, report.size(), stdout);

    // Traces from --monitor runs carry a sync_config event; recompute the
    // streaming analysis so the summary reports r(t) and the transition
    // time without needing the original run.
    if (has_sync_config(events)) {
        const auto sync = obs::replay_sync(events);
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

int cmd_trace_filter(const Flags& flags) {
    cli::reject_unknown_flags(flags, cli::kTraceFilterFlags);
    const auto events = load_trace(flags);
    obs::FilterOptions options;
    // --type a,b,c — comma-separated wire names.
    if (const std::string types = flag_s(flags, "type"); !types.empty()) {
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
    if (flags.contains("node")) {
        options.node = flag_i(flags, "node", -1);
    }
    if (flags.contains("from")) {
        options.t_min = flag_d(flags, "from", 0.0);
    }
    if (flags.contains("to")) {
        options.t_max = flag_d(flags, "to", 0.0);
    }
    std::string out;
    for (const obs::TraceEvent& e : obs::filter_events(events, options)) {
        out += obs::trace_event_jsonl(e);
        out += '\n';
    }
    emit_text(flags, out);
    return 0;
}

int cmd_trace_export_chrome(const Flags& flags) {
    cli::reject_unknown_flags(flags, cli::kTraceExportChromeFlags);
    emit_text(flags, obs::export_chrome(load_trace(flags)));
    return 0;
}

int cmd_trace_replay_check(const Flags& flags) {
    cli::reject_unknown_flags(flags, cli::kTraceReplayCheckFlags);
    const auto events = load_trace(flags);
    const auto replay = core::replay_cluster_series(
        events,
        sim::SimTime::seconds(flag_d(flags, "tolerance", 1e-6)));
    std::fprintf(stderr,
                 "replay-check: n=%d, %llu timer_set fed (%llu initial "
                 "skipped), %zu cluster events recomputed\n",
                 replay.n,
                 static_cast<unsigned long long>(replay.timer_sets_fed),
                 static_cast<unsigned long long>(replay.initial_skipped),
                 replay.replayed.size());
    if (flag_b(flags, "print")) {
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
    if (const std::string expect = flag_s(flags, "expect"); !expect.empty()) {
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
    if (has_sync_config(events)) {
        const auto sync = obs::replay_sync(events);
        std::fprintf(stderr,
                     "replay-check: sync replay — r_last=%.17g r_max=%.17g "
                     "transitions=%zu time_to_sync=%s\n",
                     sync.report.r_last, sync.report.r_max,
                     sync.transitions.size(),
                     fmt_time_to_sync(sync.report.time_to_sync_sec).c_str());
        bool ok = sync.transitions.size() == sync.recorded.size();
        for (std::size_t i = 0; ok && i < sync.transitions.size(); ++i) {
            const auto& a = sync.transitions[i];
            const auto& b = sync.recorded[i];
            ok = a.time == b.time && a.up == b.up && a.r == b.r;
        }
        if (!ok) {
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
        const auto recomputed_edges = sync.coupling.edges();
        bool edges_ok = recomputed_edges.size() == sync.recorded_edges.size();
        for (std::size_t i = 0; edges_ok && i < recomputed_edges.size(); ++i) {
            const auto& a = recomputed_edges[i];
            const auto& b = sync.recorded_edges[i];
            edges_ok = a.src == b.src && a.dst == b.dst && a.weight == b.weight;
        }
        if (!edges_ok) {
            std::fprintf(stderr,
                         "replay-check: MISMATCH — recomputed coupling graph "
                         "(%zu edges) differs from the %zu recorded "
                         "coupling_edge events\n",
                         recomputed_edges.size(), sync.recorded_edges.size());
            ++failures;
        } else {
            std::fprintf(stderr,
                         "replay-check: OK — coupling graph matches the %zu "
                         "recorded coupling_edge events\n",
                         recomputed_edges.size());
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
int cmd_analyze_coupling(const Flags& flags) {
    cli::reject_unknown_flags(flags, cli::kAnalyzeCouplingFlags);
    const auto events = load_trace(flags);
    obs::SyncReplayOverrides overrides;
    overrides.period_sec = flag_d(flags, "round", 0.0);
    const auto sync = obs::replay_sync(events, overrides);
    const obs::CouplingGraph& g = sync.coupling;

    int failures = 0;
    if (g.total_weight() != sync.timer_sets_fed) {
        std::fprintf(stderr,
                     "analyze coupling: MISMATCH — edge-weight total %llu != "
                     "%llu re-arms fed from the trace\n",
                     static_cast<unsigned long long>(g.total_weight()),
                     static_cast<unsigned long long>(sync.timer_sets_fed));
        ++failures;
    }
    if (!sync.recorded_edges.empty()) {
        const auto recomputed = g.edges();
        bool ok = recomputed.size() == sync.recorded_edges.size();
        for (std::size_t i = 0; ok && i < recomputed.size(); ++i) {
            const auto& a = recomputed[i];
            const auto& b = sync.recorded_edges[i];
            ok = a.src == b.src && a.dst == b.dst && a.weight == b.weight;
        }
        if (!ok) {
            std::fprintf(stderr,
                         "analyze coupling: MISMATCH — recomputed graph (%zu "
                         "edges) differs from the %zu recorded coupling_edge "
                         "events\n",
                         recomputed.size(), sync.recorded_edges.size());
            ++failures;
        }
    }
    std::fprintf(stderr,
                 "analyze coupling: %zu nodes, %zu edges, total weight %llu "
                 "(%llu re-arms fed, %llu initial arms skipped)%s\n",
                 g.node_count(), g.edge_count(),
                 static_cast<unsigned long long>(g.total_weight()),
                 static_cast<unsigned long long>(sync.timer_sets_fed),
                 static_cast<unsigned long long>(sync.initial_skipped),
                 sync.recorded_edges.empty()
                     ? ""
                     : " — matches the recorded coupling_edge events");

    if (const std::string dot = flag_s(flags, "dot"); !dot.empty()) {
        std::ofstream f{dot};
        if (!f) {
            throw std::runtime_error{"analyze coupling: cannot open " + dot};
        }
        f << g.to_dot();
    }
    if (const std::string json = flag_s(flags, "json"); !json.empty()) {
        std::ofstream f{json};
        if (!f) {
            throw std::runtime_error{"analyze coupling: cannot open " + json};
        }
        f << g.to_json() << '\n';
    }
    if (flag_b(flags, "print") ||
        (flag_s(flags, "dot").empty() && flag_s(flags, "json").empty())) {
        const std::string dot = g.to_dot();
        std::fwrite(dot.data(), 1, dot.size(), stdout);
    }
    return failures == 0 ? 0 : 1;
}

int cmd_analyze(int argc, char** argv) {
    if (argc < 3) {
        throw std::invalid_argument{"analyze: need an action (coupling)"};
    }
    const std::string action = argv[2];
    const Flags flags = cli::parse_flags(argc, argv, 3);
    if (action == "coupling") {
        return cmd_analyze_coupling(flags);
    }
    throw std::invalid_argument{"analyze: unknown action '" + action + "'"};
}

// `scenario list` prints the registry table; `scenario run <name>
// [--flags]` dispatches through it. Builtins run in-process; figure and
// example binaries exec relative to --bin-dir (default: the build root,
// inferred from this binary's own path — tools/ and bench/ are
// siblings).
int cmd_scenario(int argc, char** argv) {
    scenarios::register_builtin_scenarios();
    const auto& registry = scenarios::ScenarioRegistry::instance();
    if (argc < 3) {
        throw std::invalid_argument{
            "scenario: need an action (list|run NAME|sweep NAME)"};
    }
    const std::string action = argv[2];
    if (action == "list") {
        std::printf("%-18s %-8s %s\n", "name", "kind", "summary");
        for (const auto& e : registry.entries()) {
            std::printf("%-18s %-8s %s\n", e.name.c_str(),
                        e.is_builtin() ? "builtin" : "external",
                        e.summary.c_str());
            if (!e.flags_help.empty()) {
                std::printf("%-18s %-8s   flags: %s\n", "", "",
                            e.flags_help.c_str());
            }
        }
        return 0;
    }
    if (action == "run") {
        if (argc < 4) {
            throw std::invalid_argument{"scenario run: need a scenario name"};
        }
        const std::string name = argv[3];
        Flags flags = cli::parse_flags(argc, argv, 4);
        const scenarios::ScenarioEntry* entry = registry.find(name);
        const bool builtin = entry != nullptr && entry->is_builtin();
        if (builtin) {
            // A builtin reads only its own flags: a typo must not run the
            // defaults. --bin-dir is the dispatch's, and builtins ignore it.
            flags.erase("bin-dir");
            cli::reject_unknown_flags(flags, entry->flags);
        }
        if (!builtin && !flags.contains("bin-dir")) {
            // argv[0] is <build>/tools/routesync; the figure and example
            // binaries live in <build>/bench and <build>/examples.
            std::string self = argv[0];
            const auto slash = self.find_last_of('/');
            flags["bin-dir"] =
                (slash == std::string::npos ? std::string{"."}
                                            : self.substr(0, slash)) +
                "/..";
        }
        return registry.run(name, flags);
    }
    if (action == "sweep") {
        if (argc < 4) {
            throw std::invalid_argument{"scenario sweep: need a scenario name"};
        }
        const std::string name = argv[3];
        if (name != "shared_lan") {
            throw std::invalid_argument{
                "scenario sweep: only 'shared_lan' is sweepable, got '" + name +
                "'"};
        }
        const Flags flags = cli::parse_flags(argc, argv, 4);
        cli::reject_unknown_flags(flags, scenarios::kSharedLanSweepFlags);
        return scenarios::run_shared_lan_sweep(flags);
    }
    throw std::invalid_argument{"scenario: unknown action '" + action + "'"};
}

int cmd_trace(int argc, char** argv) {
    if (argc < 3) {
        throw std::invalid_argument{
            "trace: need an action (summary|filter|export-chrome|replay-check)"};
    }
    const std::string action = argv[2];
    const Flags flags = cli::parse_flags(argc, argv, 3);
    if (action == "summary") {
        return cmd_trace_summary(flags);
    }
    if (action == "filter") {
        return cmd_trace_filter(flags);
    }
    if (action == "export-chrome") {
        return cmd_trace_export_chrome(flags);
    }
    if (action == "replay-check") {
        return cmd_trace_replay_check(flags);
    }
    throw std::invalid_argument{"trace: unknown action '" + action + "'"};
}

void usage() {
    std::fprintf(stderr,
                 "usage: routesync <pm|chain|sweep|threshold|f2|trace|analyze|scenario> [--flag value]...\n"
                 "  pm        --n --tp --tr --tc --seed --max-time [--sync-start]\n"
                 "            [--reset-at-expiry] [--half-period] [--delta X]\n"
                 "            [--stop-on-sync] [--stop-on-breakup K]\n"
                 "            [--rounds|--transmits [--stride k]]\n"
                 "            [--monitor [--sync-threshold R] [--sync-hysteresis H]]\n"
                 "            [--trace FILE] [--out MANIFEST] [--sample-every SEC]\n"
                 "  chain     --n --tp --tr --tc [--f2 rounds]\n"
                 "  sweep     --n --tp --tc --from --to --step [--jobs N]\n"
                 "            [--sim-trials T [--sim-max-time SEC] [--seed S]]\n"
                 "            [--trace FILE] [--out MANIFEST] (Tr in units of Tc)\n"
                 "  threshold --n --tp --tr --tc [--f2 rounds] [--n-max N]\n"
                 "  f2        --n --tp --tr --tc [--reps] [--seed] [--jobs N]\n"
                 "  (every command exits 2 on a flag it does not read or a\n"
                 "  malformed value)\n"
                 "  trace     <summary|filter|export-chrome|replay-check> --in FILE\n"
                 "            summary:       [--round SEC] [--bins N]\n"
                 "            filter:        [--type a,b] [--node N] [--from T]\n"
                 "                           [--to T] [--out FILE]\n"
                 "            export-chrome: [--out FILE]\n"
                 "            replay-check:  [--tolerance SEC] [--expect FILE]\n"
                 "                           [--print] (exit 1 on mismatch;\n"
                 "                           monitored traces also get the\n"
                 "                           sync r(t)/transition recompute)\n"
                 "  analyze   coupling --in FILE [--round SEC] [--dot FILE]\n"
                 "            [--json FILE] [--print]\n"
                 "            who-reset-whom coupling graph from a trace\n"
                 "            (DOT to stdout by default; exit 1 when the\n"
                 "            cross-checks fail)\n"
                 "  scenario  list | run NAME [--flag value]... [--bin-dir DIR]\n"
                 "            one table of testbeds, figures, and examples;\n"
                 "            `list` shows each entry's flags. shared_lan\n"
                 "            takes --queue red|droptail (the element-graph\n"
                 "            AQM knob) and --trials K [--jobs N] for\n"
                 "            parallel repetitions.\n"
                 "  scenario  sweep shared_lan --buffers LO..HI|a,b,c\n"
                 "            --loads a,b,c --trials K [--jobs N]\n"
                 "            [--out MANIFEST] [shared_lan flags]\n"
                 "            buffer x load x trial grid of packet-level\n"
                 "            runs over one work-stealing pool; stdout and\n"
                 "            manifests are byte-identical for every N\n"
                 "\n"
                 "  --jobs N  worker threads for parallel sweeps (default and\n"
                 "            N = 0: hardware concurrency). Results are\n"
                 "            byte-identical for every N.\n");
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "trace" || cmd == "scenario" || cmd == "analyze") {
        try {
            if (cmd == "trace") {
                return cmd_trace(argc, argv);
            }
            return cmd == "analyze" ? cmd_analyze(argc, argv)
                                    : cmd_scenario(argc, argv);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        }
    }
    Flags flags;
    try {
        flags = cli::parse_flags(argc, argv, 2);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        usage();
        return 2;
    }
    try {
        if (cmd == "pm") {
            return cmd_pm(flags);
        }
        if (cmd == "chain") {
            return cmd_chain(flags);
        }
        if (cmd == "sweep") {
            return cmd_sweep(flags);
        }
        if (cmd == "threshold") {
            return cmd_threshold(flags);
        }
        if (cmd == "f2") {
            return cmd_f2(flags);
        }
    } catch (const std::invalid_argument& e) {
        // A rejected flag or value is a usage error, as for every command.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    usage();
    return 2;
}
