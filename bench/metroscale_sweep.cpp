// Metro-scale phase-transition sweep: the Figure 15 experiment — fraction
// of time unsynchronized vs N at Tp = 121 s, Tc = 0.11 s, Tr = 0.3 s —
// pushed from the paper's N = 5..32 axis up to N = 1e5 routers in a
// single simulated trial, on the PM kernel.
//
// Each N rung is one SweepScheduler run (--jobs applies), timed
// wall-clock, and reported as:
//   * frac_unsync        rounds whose largest cluster was 1 / closed rounds
//   * ns/router-round    wall nanoseconds per (router x closed round)
//   * ns/tx              wall nanoseconds per transmission
//   * push/tx            event-queue pushes per transmission (a busy check
//                        run inline or moved within the queue's lane is
//                        not a push): ~1.1 outside a cluster, ~2 inside
//   * setup_ms           the same rung at max_time = 0: building the
//                        kernels and trackers and drawing the first
//                        expiries, included in wall_ms
//   * bytes/router       kernel state high-water (SoA node arrays + event
//                        queue) divided by N — the number that decides
//                        whether 1e6 routers fit in memory
// plus the process peak RSS after the largest rung.
//
// ns/router-round divides by closed rounds, which the largest rungs have
// few of: at N = 1e5 the one closed round carries two transmissions per
// router, so that rung's ns/router-round rises with N even where ns/tx
// barely moves. ns/tx and setup_ms separate the per-event cost from that
// denominator and from the fixed cost of building a trial.
//
// The paper's qualitative result must survive the scale-up: small N stays
// predominately unsynchronized, and past the critical N (~20 at these
// parameters) the network locks up — so the fraction at the largest rung
// is near zero. At metro scale the entire first round collapses into one
// busy chain (1e5 expiries ~1.2 ms apart against an 0.11 s processing
// time), which is exactly the thousands-of-timers-per-bucket regime the
// kernel's sorted-run calendar consumption is built for.
//
// Writes the "metroscale" section of BENCH_sweep.json (or --bench-out
// PATH; fig13 and fig15 own the other sections of the same file).
//
// Extra flags:
//   --max-n N        largest rung to run (default 100000)
//   --sim-time SEC   simulated seconds per trial (default 20000)
//   --trials T       trials per rung for n <= 1000 (default 3; rungs
//                    above 1000 routers always run a single trial)
//   --bench-out PATH report file (default BENCH_sweep.json; --out stays
//                    the manifest path, as in every bench)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/core.hpp"
#include "obs/manifest.hpp"
#include "parallel/parallel.hpp"

using namespace routesync;
using namespace routesync::bench;

namespace {

struct Rung {
    int n = 0;
    int trials = 0;
    double wall_ms = 0.0;
    double setup_ms = 0.0;
    std::uint64_t rounds_closed = 0;
    std::uint64_t rounds_unsync = 0;
    std::uint64_t transmissions = 0;
    std::uint64_t queue_pushes = 0;
    std::uint64_t kernel_state_bytes = 0; ///< max across the rung's trials
    double frac_unsync = 0.0;
    double ns_per_router_round = 0.0;
    double ns_per_tx = 0.0;
    double pushes_per_tx = 0.0;
    double bytes_per_router = 0.0;
};

Rung run_rung(int n, int trials, double sim_seconds, std::uint64_t base_seed,
              std::uint64_t& task, std::size_t jobs) {
    std::vector<core::ExperimentConfig> configs;
    configs.reserve(static_cast<std::size_t>(trials));
    for (int t = 0; t < trials; ++t) {
        core::ExperimentConfig cfg;
        cfg.params.n = n;
        cfg.params.tp = sim::SimTime::seconds(121.0);
        cfg.params.tc = sim::SimTime::seconds(0.11);
        cfg.params.tr = sim::SimTime::seconds(0.3);
        cfg.params.start = core::StartCondition::Unsynchronized;
        cfg.params.seed = parallel::derive_seed(base_seed, task++);
        cfg.max_time = sim::SimTime::seconds(sim_seconds);
        cfg.backend = core::ExperimentBackend::FastKernel;
        configs.push_back(std::move(cfg));
    }

    const auto t0 = std::chrono::steady_clock::now();
    const auto results = parallel::SweepScheduler{{.jobs = jobs}}.run_all(configs);
    const auto t1 = std::chrono::steady_clock::now();

    Rung rung;
    rung.n = n;
    rung.trials = trials;
    rung.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    std::uint64_t router_rounds = 0;
    for (const auto& r : results) {
        rung.rounds_closed += r.rounds_closed;
        rung.rounds_unsync += r.rounds_unsynchronized;
        rung.transmissions += r.total_transmissions;
        rung.queue_pushes += r.queue_pushes;
        rung.kernel_state_bytes =
            std::max(rung.kernel_state_bytes, r.kernel_state_bytes);
        router_rounds += static_cast<std::uint64_t>(n) * r.rounds_closed;
    }
    if (rung.rounds_closed > 0) {
        rung.frac_unsync = static_cast<double>(rung.rounds_unsync) /
                           static_cast<double>(rung.rounds_closed);
    }
    if (router_rounds > 0) {
        rung.ns_per_router_round =
            rung.wall_ms * 1e6 / static_cast<double>(router_rounds);
    }
    if (rung.transmissions > 0) {
        rung.ns_per_tx = rung.wall_ms * 1e6 / static_cast<double>(rung.transmissions);
        rung.pushes_per_tx = static_cast<double>(rung.queue_pushes) /
                             static_cast<double>(rung.transmissions);
    }
    rung.bytes_per_router =
        static_cast<double>(rung.kernel_state_bytes) / static_cast<double>(n);
    return rung;
}

} // namespace

int main(int argc, char** argv) {
    static constexpr cli::FlagSpec kExtra[] = {
        cli::integer("max-n", "N"), cli::real("sim-time", "SEC"),
        cli::integer("trials", "K"), cli::text("bench-out", "FILE")};
    OptionsSpec spec;
    spec.extra = kExtra;
    spec.tool = "metroscale_sweep";
    spec.description = "fig15 phase transition in N pushed to metro scale "
                       "(N up to 1e5) on the PM kernel; reports "
                       "frac unsync, ns/router-round, ns/tx, push/tx, setup_ms, "
                       "bytes/router, peak RSS";
    const Options& options = parse_options(argc, argv, spec);
    const int max_n = options.args.integer("max-n", 100000);
    const double sim_seconds = options.args.real("sim-time", 20000.0);
    const int trials_small = options.args.integer("trials", 3);
    const std::uint64_t base_seed = options.seed_or(1993);

    header("Metro-scale sweep",
           "fraction unsynchronized vs N at Tp=121 s, Tc=0.11 s, Tr=0.3 s, "
           "N up to 1e5 (fig15 pushed to metro scale)");

    const std::vector<int> ladder = {10,   15,   20,    25,    30,     50, 100,
                                     300,  1000, 3000,  10000, 30000, 100000};
    std::vector<Rung> rungs;
    std::uint64_t task = 0;
    section("series: N vs fraction unsynchronized (simulated)");
    std::printf("%7s %7s %10s %10s %12s %10s %14s %9s %8s %14s\n", "N", "trials",
                "rounds", "frac", "wall_ms", "setup_ms", "ns/rtr-round", "ns/tx",
                "push/tx", "bytes/router");
    for (const int n : ladder) {
        if (n > max_n) {
            continue;
        }
        const int trials = n <= 1000 ? trials_small : 1;
        // The setup pass reuses the rung's seeds, so the task counter
        // (and every later rung's seeds) does not see it.
        std::uint64_t setup_task = task;
        Rung rung = run_rung(n, trials, sim_seconds, base_seed, task,
                             options.jobs);
        rung.setup_ms =
            run_rung(n, trials, 0.0, base_seed, setup_task, options.jobs).wall_ms;
        std::printf("%7d %7d %10llu %10.4f %12.1f %10.1f %14.1f %9.1f %8.2f %14.1f\n",
                    rung.n, rung.trials,
                    static_cast<unsigned long long>(rung.rounds_closed),
                    rung.frac_unsync, rung.wall_ms, rung.setup_ms,
                    rung.ns_per_router_round, rung.ns_per_tx, rung.pushes_per_tx,
                    rung.bytes_per_router);
        rungs.push_back(rung);
    }
    if (rungs.empty()) {
        std::fprintf(stderr, "error: --max-n %d leaves no rungs to run\n", max_n);
        return 2;
    }

    const Rung& smallest = rungs.front();
    const Rung& largest = rungs.back();
    const std::uint64_t rss = obs::peak_rss_bytes();
    // Every calendar rung is held to a state budget. The calendar's fixed
    // part (1024 bucket headers and the bitmap, ~25 KB) weighs most at its
    // smallest rung, N = 300, and amortizes as N grows, so the budget is
    // 512 B/router from N = 300 and the scaling claim's 256 B/router from
    // N = 1e4. Drained buckets keep at most kPmBucketRetainEvents events,
    // so a cluster leaves no storage behind in the ring slots it visits.
    double max_bytes_per_router = 0.0;      // N >= 1e4
    double max_bytes_per_router_cal = 0.0;  // N >= kPmCalendarMinNodes
    bool have_metro_rung = false;
    bool have_calendar_rung = false;
    for (const Rung& r : rungs) {
        if (r.n >= core::kPmCalendarMinNodes) {
            max_bytes_per_router_cal =
                std::max(max_bytes_per_router_cal, r.bytes_per_router);
            have_calendar_rung = true;
        }
        if (r.n >= 10000) {
            max_bytes_per_router =
                std::max(max_bytes_per_router, r.bytes_per_router);
            have_metro_rung = true;
        }
    }

    section("summary");
    std::printf("largest rung               : N = %d\n", largest.n);
    std::printf("frac unsync at N = %-6d  : %.4f\n", smallest.n,
                smallest.frac_unsync);
    std::printf("frac unsync at N = %-6d  : %.4f\n", largest.n,
                largest.frac_unsync);
    std::printf("ns/router-round at largest : %.1f\n",
                largest.ns_per_router_round);
    std::printf("ns/tx at largest           : %.1f\n", largest.ns_per_tx);
    std::printf("setup_ms at largest        : %.1f of %.1f\n", largest.setup_ms,
                largest.wall_ms);
    std::printf("bytes/router at largest    : %.1f\n", largest.bytes_per_router);
    std::printf("peak RSS                   : %.1f MiB\n",
                static_cast<double>(rss) / (1024.0 * 1024.0));

    check(largest.rounds_closed > 0 && largest.transmissions > 0,
          "the largest rung completes with closed rounds and transmissions");
    check(largest.ns_per_router_round > 0.0,
          "ns/router-round is measured at the largest rung");
    if (smallest.n <= 15) {
        check(smallest.frac_unsync > 0.5,
              "small N stays predominately unsynchronized (paper's left "
              "regime)");
    }
    if (largest.n >= 50) {
        check(largest.frac_unsync < 0.5,
              "past the critical N the network is predominately "
              "synchronized (paper's right regime, held at metro scale)");
    }
    if (have_calendar_rung) {
        check(max_bytes_per_router_cal <= 512.0,
              "kernel state stays within 512 bytes/router at every "
              "calendar-queue rung (N >= 300)");
    }
    if (have_metro_rung) {
        check(max_bytes_per_router <= 256.0,
              "kernel state stays within 256 bytes/router at every rung of "
              "at least 1e4 routers");
    }

    const std::string path = options.args.text("bench-out", "BENCH_sweep.json");
    std::ostringstream out;
    out << "{\n";
    out << "    \"params\": {\"tp_sec\": 121, \"tc_sec\": 0.11, \"tr_sec\": 0.3, "
           "\"sim_seconds\": "
        << sim_seconds << ", \"start\": \"unsynchronized\"},\n";
    out << "    \"jobs\": " << options.jobs << ",\n";
    out << "    \"rungs\": [\n";
    for (std::size_t i = 0; i < rungs.size(); ++i) {
        const Rung& r = rungs[i];
        out << "      {\"n\": " << r.n << ", \"trials\": " << r.trials
            << ", \"rounds_closed\": " << r.rounds_closed
            << ", \"frac_unsync\": " << r.frac_unsync
            << ", \"wall_ms\": " << r.wall_ms
            << ", \"setup_ms\": " << r.setup_ms
            << ", \"ns_per_router_round\": " << r.ns_per_router_round
            << ", \"ns_per_tx\": " << r.ns_per_tx
            << ", \"kernel_state_bytes\": " << r.kernel_state_bytes
            << ", \"bytes_per_router\": " << r.bytes_per_router
            << ", \"transmissions\": " << r.transmissions
            << ", \"queue_pushes\": " << r.queue_pushes
            << (i + 1 < rungs.size() ? "},\n" : "}\n");
    }
    out << "    ],\n";
    out << "    \"max_bytes_per_router_metro\": " << max_bytes_per_router
        << ",\n";
    out << "    \"peak_rss_bytes\": " << rss << "\n";
    out << "  }";
    write_json_section(path, "metroscale", out.str());
    std::printf("wrote section \"metroscale\" of %s\n", path.c_str());

    opts().sim_seconds = sim_seconds;
    return footer();
}
