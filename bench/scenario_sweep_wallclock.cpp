// Wall-clock bench for the packet-level scenario sweep: one TaskPool
// over a (buffer x load x trial) grid of shared-LAN simulations
// (scenarios/run_scenario_sweep), timed end to end at --jobs 1, 4, and
// 8. Every pass must agree on the transmissions checksum (summed
// frames_delivered) and on the combined FNV trace digest — the same
// byte-identity contract check-scenario-sweep enforces at the CLI, here
// applied to the wall-clock passes so a timing number can never come
// from a run that computed something different.
//
// Writes the "scenario_sweep" section of BENCH_sweep.json (or
// --bench-out PATH; bench/sweep_wallclock and bench/metroscale_sweep
// own the other sections of the same file).
//
// Extra flags:
//   --max-time SEC   simulated seconds per cell (default 300)
//   --trials T       trials per grid point (default 3)
//   --bench-out PATH report file (default BENCH_sweep.json)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "scenarios/scenario_sweep.hpp"

using namespace routesync;
using namespace routesync::bench;

namespace {

struct Pass {
    std::size_t jobs = 0;
    double wall_ms = 0.0;
    std::size_t steals = 0;
    std::uint64_t transmissions = 0; ///< summed frames_delivered
    std::uint64_t combined_digest = 0;
    std::size_t cells = 0;
};

Pass run_pass(const scenarios::ScenarioSweepConfig& base, std::size_t jobs) {
    scenarios::ScenarioSweepConfig cfg = base;
    cfg.jobs = jobs;
    const auto t0 = std::chrono::steady_clock::now();
    const scenarios::ScenarioSweepResult sweep =
        scenarios::run_scenario_sweep(cfg);
    const auto t1 = std::chrono::steady_clock::now();

    Pass pass;
    pass.jobs = jobs;
    pass.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    pass.steals = sweep.steals;
    pass.combined_digest = sweep.combined_digest;
    pass.cells = sweep.cells.size();
    for (const scenarios::ScenarioSweepCell& cell : sweep.cells) {
        pass.transmissions += cell.result.frames_delivered;
    }
    return pass;
}

} // namespace

int main(int argc, char** argv) {
    static constexpr cli::FlagSpec kExtra[] = {cli::real("max-time", "SEC"),
                                               cli::integer("trials", "K", 1),
                                               cli::text("bench-out", "FILE")};
    OptionsSpec spec;
    spec.extra = kExtra;
    spec.tool = "scenario_sweep_wallclock";
    spec.description = "packet-level shared-LAN scenario sweep (buffer x "
                       "load x trial grid) timed at --jobs 1/4/8; every "
                       "pass must agree on transmissions and trace digest";
    const Options& options = parse_options(argc, argv, spec);
    const double max_time = options.args.real("max-time", 300.0);
    const int trials = options.args.integer("trials", 3);

    scenarios::ScenarioSweepConfig sweep_cfg;
    sweep_cfg.base.queue_disc = net::elements::QueueDisc::Red;
    sweep_cfg.base.max_time = sim::SimTime::seconds(max_time);
    sweep_cfg.base.seed = options.seed_or(1993);
    sweep_cfg.buffers = {4, 8, 16, 32};
    sweep_cfg.loads = {0.8, 1.2};
    sweep_cfg.trials = trials;
    const std::size_t cells =
        sweep_cfg.buffers.size() * sweep_cfg.loads.size() *
        static_cast<std::size_t>(trials);

    header("Scenario sweep wall clock",
           "RED shared-LAN buffer x load grid through the packet-level "
           "sweep runner at 1/4/8 workers");

    section("grid");
    std::printf("buffers: 4, 8, 16, 32   loads: 0.8, 1.2   trials: %d\n",
                trials);
    std::printf("cells: %zu x %.0f simulated seconds each\n", cells, max_time);

    const std::vector<std::size_t> jobs_ladder = {1, 4, 8};
    std::vector<Pass> passes;
    section("passes");
    std::printf("%6s %12s %8s %15s %18s\n", "jobs", "wall_ms", "steals",
                "transmissions", "combined_digest");
    for (const std::size_t jobs : jobs_ladder) {
        Pass pass = run_pass(sweep_cfg, jobs);
        std::printf("%6zu %12.1f %8zu %15llu 0x%016llx\n", pass.jobs,
                    pass.wall_ms, pass.steals,
                    static_cast<unsigned long long>(pass.transmissions),
                    static_cast<unsigned long long>(pass.combined_digest));
        passes.push_back(pass);
    }

    const Pass& reference = passes.front();
    bool checksums_agree = true;
    bool digests_agree = true;
    for (const Pass& pass : passes) {
        checksums_agree &= pass.transmissions == reference.transmissions;
        digests_agree &= pass.combined_digest == reference.combined_digest;
    }
    check(reference.cells == cells && reference.transmissions > 0,
          "every grid cell completed and delivered frames");
    check(checksums_agree,
          "transmissions checksum is identical across --jobs 1/4/8");
    check(digests_agree,
          "combined trace digest is identical across --jobs 1/4/8");

    const std::string path = options.args.text("bench-out", "BENCH_sweep.json");
    std::ostringstream out;
    out << "{\n";
    out << "    \"grid\": {\"buffers\": [4, 8, 16, 32], \"loads\": [0.8, 1.2], "
           "\"trials\": "
        << trials << ", \"cells\": " << cells
        << ", \"sim_seconds_per_cell\": " << max_time
        << ", \"queue\": \"red\"},\n";
    out << "    \"hardware_concurrency\": " << parallel::hardware_jobs()
        << ",\n";
    out << "    \"passes\": [\n";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const Pass& p = passes[i];
        out << "      {\"jobs\": " << p.jobs << ", \"wall_ms\": " << p.wall_ms
            << ", \"steals\": " << p.steals
            << ", \"transmissions\": " << p.transmissions
            << (i + 1 < passes.size() ? "},\n" : "}\n");
    }
    out << "    ],\n";
    out << "    \"scaling_jobs_1_to_4\": "
        << reference.wall_ms / passes[1].wall_ms << ",\n";
    out << "    \"scaling_jobs_1_to_8\": "
        << reference.wall_ms / passes[2].wall_ms << ",\n";
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof digest_hex, "0x%016llx",
                  static_cast<unsigned long long>(reference.combined_digest));
    out << "    \"combined_digest\": \"" << digest_hex << "\"\n";
    out << "  }";
    write_json_section(path, "scenario_sweep", out.str());
    std::printf("wrote section \"scenario_sweep\" of %s\n", path.c_str());

    opts().sim_seconds = max_time * static_cast<double>(cells);
    return footer();
}
