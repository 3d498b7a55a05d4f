// jitter_tuning: size the randomness for YOUR routing protocol.
//
//   $ ./examples/jitter_tuning [--n N>=2] [--tp period_s>0] [--tc cost_s>0]
//
// Given the number of routers sharing a network, their update period, and
// the CPU cost of one update, this walks the paper's Section 5 analysis:
//   * the synchronization threshold (where the phase transition sits),
//   * the minimum jitter for a predominately-unsynchronized network,
//   * how fast an already-synchronized network recovers at that jitter,
//   * the paper's two rules of thumb (10*Tc, and Tp/2).
#include <cstdio>

#include "bench/common.hpp"
#include "markov/markov.hpp"

using namespace routesync;

int main(int argc, char** argv) {
    static constexpr cli::FlagSpec kExtra[] = {cli::integer("n", "N", 2),
                                               cli::positive("tp", "SEC"),
                                               cli::positive("tc", "SEC")};
    bench::OptionsSpec spec;
    spec.extra = kExtra;
    spec.description = "size the update-timer randomness for your protocol";
    bench::Options& options = bench::parse_options(argc, argv, spec);
    const int n = options.args.integer("n", 20);
    const double tp = options.args.real("tp", 30.0); // RIP default
    const double tc = options.args.real("tc", 0.3);  // 300 routes @ 1 ms
    obs::Manifest& manifest = options.ctx.manifest();
    manifest.set_config("n", n);
    manifest.set_config("tp_sec", tp);
    manifest.set_config("tc_sec", tc);

    bench::print("network: N=%d routers, period Tp=%.3g s, update cost Tc=%.3g s\n\n",
                 n, tp, tc);

    markov::ChainParams p;
    p.n = n;
    p.tp_sec = tp;
    p.tc_sec = tc;
    p.tr_sec = tc; // placeholder; swept below

    bench::print("%10s %10s %16s %18s\n", "Tr (s)", "Tr/Tc", "frac_unsync",
                 "recovery g(1)");
    for (const double factor : {0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0}) {
        markov::ChainParams q = p;
        q.tr_sec = factor * tc;
        q.f2_rounds = markov::f2_diffusion_estimate(n, tp, q.tr_sec);
        const markov::FJChain chain{q};
        const double g1 = chain.time_to_break_up_seconds();
        char recovery[64];
        if (g1 > 1e15) {
            std::snprintf(recovery, sizeof recovery, "never");
        } else if (g1 > 86400) {
            std::snprintf(recovery, sizeof recovery, "%.1f days", g1 / 86400);
        } else {
            std::snprintf(recovery, sizeof recovery, "%.2g hours", g1 / 3600);
        }
        bench::print("%10.3g %10.2f %16.4f %18s\n", q.tr_sec, factor,
                     chain.fraction_unsynchronized(), recovery);
    }

    markov::ChainParams base = p;
    base.f2_rounds = markov::f2_diffusion_estimate(n, tp, tc);
    const double tr_star = markov::critical_tr_seconds(base);

    bench::print("\nrecommendations\n");
    bench::print("  50%% synchronization threshold : Tr* = %.3g s (%.1f * Tc)\n",
                 tr_star, tr_star / tc);
    bench::print("  engineering margin (2x)       : Tr >= %.3g s\n", 2 * tr_star);
    bench::print("  paper's quick-breakup rule    : Tr >= 10 * Tc = %.3g s\n",
                 10 * tc);
    bench::print("  paper's universal fix         : timer ~ uniform[%.3g, %.3g] s "
                 "(Tr = Tp/2)\n",
                 0.5 * tp, 1.5 * tp);
    bench::print("\n(reset the timer only AFTER processing, and add the jitter "
                 "fresh on every arm — see DESIGN.md)\n");
    return bench::footer_quiet();
}
