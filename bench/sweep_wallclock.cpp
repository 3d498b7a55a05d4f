// Wall-clock benchmark for the PM fast-path kernel + work-stealing sweep
// scheduler: the Figure 13 N x Tc simulation grid (N in {10, 20, 30},
// Tc in {0.01, 0.11} s, Tr/Tc from 0.6 to 8.0 in steps of 0.4), every
// (grid point x trial) task pooled into one SweepScheduler run.
//
// Four timed passes over the identical grid (each best-of-3 to shed
// scheduler noise):
//   engine   --jobs 1   generic DES engine + PeriodicMessagesModel
//   kernel   --jobs 1   PM kernel, one trial per kernel
//   kernel   --jobs 4   PM kernels + work stealing
//   kernel   --jobs 8   PM kernels + work stealing
//
// Then the end-to-end figure reproduction suite: the fig07..fig15
// binaries (built next to this one) each run once with their default
// arguments, output discarded, total wall time recorded — the number a
// user actually waits for when regenerating the paper's figures.
//
// Writes the "sweep_wallclock" section of BENCH_sweep.json (or
// --bench-out PATH; bench/metroscale_sweep owns the "metroscale" section
// of the same file): per-pass wall milliseconds, the kernel-vs-engine
// speedup at one thread, 1->4 / 1->8 scaling, per-figure suite times,
// peak RSS, a representative N = 30 kernel state footprint in
// bytes/router, and the hardware_concurrency of the machine that
// produced the numbers — thread scaling is only meaningful with that
// context (a 1-core container shows ~1.0x regardless of the scheduler).
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/manifest.hpp"

#include "bench/common.hpp"
#include "core/core.hpp"
#include "parallel/parallel.hpp"
#include "scenarios/registry.hpp"

using namespace routesync;
using namespace routesync::bench;

namespace {

std::vector<core::ExperimentConfig> make_grid(core::ExperimentBackend backend) {
    std::vector<core::ExperimentConfig> configs;
    std::size_t task = 0;
    for (const int n : {10, 20, 30}) {
        for (const double tc : {0.01, 0.11}) {
            for (double factor = 0.6; factor <= 8.01; factor += 0.4) {
                core::ExperimentConfig cfg;
                cfg.params.n = n;
                cfg.params.tp = sim::SimTime::seconds(121);
                cfg.params.tc = sim::SimTime::seconds(tc);
                cfg.params.tr = sim::SimTime::seconds(factor * tc);
                cfg.params.seed = parallel::derive_seed(42, task++);
                cfg.max_time = sim::SimTime::seconds(5000);
                cfg.backend = backend;
                configs.push_back(cfg);
            }
        }
    }
    return configs;
}

struct Pass {
    std::string name;
    double wall_ms = 0.0;
    std::uint64_t transmissions = 0; ///< checksum: must agree across passes
};

/// Best-of-3: each pass runs three times and reports the fastest. A
/// single ~10 ms run is at the mercy of scheduler preemption — one
/// timer tick landing inside the window skews a pass by 10-20% — and
/// the minimum is the standard estimator for "what the code costs when
/// the OS stays out of the way". The runs are deterministic, so the
/// transmission checksum is taken from the first (all three agree).
Pass time_pass(const std::string& name, core::ExperimentBackend backend,
               std::size_t jobs) {
    constexpr int kReps = 3;
    const auto configs = make_grid(backend);
    Pass pass;
    pass.name = name;
    for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto results = parallel::SweepScheduler{{.jobs = jobs}}.run_all(configs);
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (rep == 0 || ms < pass.wall_ms) {
            pass.wall_ms = ms;
        }
        if (rep == 0) {
            for (const auto& r : results) {
                pass.transmissions += r.total_transmissions;
            }
        }
    }
    return pass;
}

struct FigureRun {
    std::string name;
    double wall_ms = 0.0;
    bool ok = false;
};

/// Times one figure binary end to end (default arguments, stdout/stderr
/// discarded). The binaries live next to this one, so resolve them
/// relative to argv[0].
FigureRun time_figure(const std::string& bin_dir, const std::string& name) {
    FigureRun run;
    run.name = name;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        run.ok = scenarios::run_binary(bin_dir + "/" + name, {}, /*quiet=*/true) == 0;
    } catch (const std::runtime_error&) {
        // Not started: run.ok stays false.
    }
    const auto t1 = std::chrono::steady_clock::now();
    run.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    return run;
}

} // namespace

int main(int argc, char** argv) {
    static constexpr cli::FlagSpec kExtra[] = {cli::text("bench-out", "FILE")};
    OptionsSpec spec;
    spec.extra = kExtra;
    spec.tool = "sweep_wallclock";
    spec.description = "fig13 N x Tc simulation grid wall clock: engine vs "
                       "PM kernel, SweepScheduler at 1/4/8 jobs, plus the "
                       "fig07..fig15 suite";
    const Options& options = parse_options(argc, argv, spec);
    header("Sweep wall clock",
           "fig13 N x Tc grid (114 sims, 5000 s each) — engine vs kernel, "
           "jobs scaling, figure-suite total");

    std::vector<Pass> passes;
    passes.push_back(time_pass("engine_jobs1", core::ExperimentBackend::Engine, 1));
    passes.push_back(time_pass("kernel_jobs1", core::ExperimentBackend::FastKernel, 1));
    passes.push_back(time_pass("kernel_jobs4", core::ExperimentBackend::FastKernel, 4));
    passes.push_back(time_pass("kernel_jobs8", core::ExperimentBackend::FastKernel, 8));

    section("wall clock");
    std::printf("%14s %12s %16s\n", "pass", "wall_ms", "transmissions");
    for (const Pass& p : passes) {
        std::printf("%14s %12.1f %16llu\n", p.name.c_str(), p.wall_ms,
                    static_cast<unsigned long long>(p.transmissions));
    }

    const double speedup_kernel = passes[0].wall_ms / passes[1].wall_ms;
    const double scale_4 = passes[1].wall_ms / passes[2].wall_ms;
    const double scale_8 = passes[1].wall_ms / passes[3].wall_ms;
    const unsigned hw = std::thread::hardware_concurrency();
    section("summary");
    std::printf("kernel vs engine   (jobs 1): %.2fx\n", speedup_kernel);
    std::printf("kernel scaling  1 -> 4     : %.2fx\n", scale_4);
    std::printf("kernel scaling  1 -> 8     : %.2fx\n", scale_8);
    std::printf("hardware_concurrency       : %u\n", hw);

    check(passes[1].transmissions == passes[0].transmissions,
          "kernel pass reproduces the engine pass transmission-for-"
          "transmission");
    check(passes[2].transmissions == passes[1].transmissions &&
              passes[3].transmissions == passes[1].transmissions,
          "jobs 4/8 passes byte-identical to jobs 1 (deterministic "
          "scheduler)");
    check(speedup_kernel > 1.0, "the fast-path kernel beats the engine");

    // End-to-end figure reproduction: every simulation-bearing figure
    // binary at its defaults. This is the wall time a user pays for the
    // full fig07..fig15 regeneration (fig09 is chain-only and cheap, but
    // it is part of the suite, so it is timed too).
    const std::string self{argv[0]};
    const auto slash = self.find_last_of('/');
    const std::string bin_dir =
        slash == std::string::npos ? std::string{"."} : self.substr(0, slash);
    const std::vector<std::string> figure_bins = {
        "fig07_unsync_start_sweep", "fig08_sync_start_sweep",
        "fig09_markov_chain",       "fig10_time_to_cluster",
        "fig11_time_to_breakup",    "fig12_randomness_sweep",
        "fig13_n_tc_sweep",         "fig14_fraction_unsync",
        "fig15_phase_transition",
    };
    section("figure suite (defaults, output discarded)");
    std::vector<FigureRun> figures;
    double suite_ms = 0.0;
    bool suite_ok = true;
    for (const std::string& name : figure_bins) {
        FigureRun run = time_figure(bin_dir, name);
        std::printf("%26s %12.1f ms%s\n", run.name.c_str(), run.wall_ms,
                    run.ok ? "" : "  (FAILED)");
        suite_ms += run.wall_ms;
        suite_ok = suite_ok && run.ok;
        figures.push_back(std::move(run));
    }
    std::printf("%26s %12.1f ms\n", "total", suite_ms);
    check(suite_ok, "every figure binary in the suite exits 0");

    // Representative per-router state footprint: one N = 30 grid point on
    // the kernel (the largest N the fig13 grid reaches). The
    // metroscale section carries the same number up to N = 1e5.
    std::uint64_t n30_state_bytes = 0;
    {
        auto cfgs = make_grid(core::ExperimentBackend::FastKernel);
        for (auto& cfg : cfgs) {
            if (cfg.params.n == 30) {
                n30_state_bytes = core::run_experiment(cfg).kernel_state_bytes;
                break;
            }
        }
    }
    const std::uint64_t rss = obs::peak_rss_bytes();
    section("memory");
    std::printf("kernel state, N = 30       : %llu B (%.1f B/router)\n",
                static_cast<unsigned long long>(n30_state_bytes),
                static_cast<double>(n30_state_bytes) / 30.0);
    std::printf("peak RSS                   : %.1f MiB\n",
                static_cast<double>(rss) / (1024.0 * 1024.0));

    const std::string path = options.args.text("bench-out", "BENCH_sweep.json");
    std::ostringstream out;
    out << "{\n";
    out << "    \"grid\": {\"n\": [10, 20, 30], \"tc_sec\": [0.01, 0.11], "
           "\"tr_over_tc\": \"0.6..8.0 step 0.4\", \"sim_seconds\": 5000, "
           "\"tasks\": 114},\n";
    out << "    \"hardware_concurrency\": " << hw << ",\n";
    out << "    \"passes\": [\n";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        out << "      {\"name\": \"" << passes[i].name << "\", \"wall_ms\": "
            << passes[i].wall_ms << ", \"transmissions\": "
            << passes[i].transmissions << (i + 1 < passes.size() ? "},\n" : "}\n");
    }
    out << "    ],\n";
    out << "    \"speedup_kernel_vs_engine_jobs1\": " << speedup_kernel << ",\n";
    out << "    \"scaling_jobs_1_to_4\": " << scale_4 << ",\n";
    out << "    \"scaling_jobs_1_to_8\": " << scale_8 << ",\n";
    out << "    \"kernel_state_bytes_n30\": " << n30_state_bytes << ",\n";
    out << "    \"bytes_per_router_n30\": "
        << static_cast<double>(n30_state_bytes) / 30.0 << ",\n";
    out << "    \"peak_rss_bytes\": " << rss << ",\n";
    out << "    \"figure_suite\": {\n";
    out << "      \"figures\": [\n";
    for (std::size_t i = 0; i < figures.size(); ++i) {
        out << "        {\"name\": \"" << figures[i].name << "\", \"wall_ms\": "
            << figures[i].wall_ms << ", \"ok\": "
            << (figures[i].ok ? "true" : "false")
            << (i + 1 < figures.size() ? "},\n" : "}\n");
    }
    out << "      ],\n";
    out << "      \"total_wall_ms\": " << suite_ms << "\n";
    out << "    }\n";
    out << "  }";
    write_json_section(path, "sweep_wallclock", out.str());
    std::printf("wrote section \"sweep_wallclock\" of %s\n", path.c_str());

    return footer();
}
