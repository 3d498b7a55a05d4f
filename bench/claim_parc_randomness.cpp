// Section 1 claim — "in the Xerox PARC internal network ... their cisco
// routers require roughly 300 ms to process a routing message (1 ms per
// route times 300 routes). From the results in Section 5, the routers
// would have to add at least a second of randomness to their update
// intervals to prevent synchronization."
//
// We size the randomness with the Markov model at Tc = 0.3 s and check
// that the answer is of order one second (and that mere tens of
// milliseconds are nowhere near enough).
#include <cstdio>

#include "bench/common.hpp"
#include "markov/markov.hpp"

using namespace routesync;
using namespace routesync::bench;

int main(int argc, char** argv) {
    parse_options(argc, argv);
    header("Section 1 claim",
           "sizing the randomness for the Xerox PARC ciscos (Tc = 0.3 s)");

    section("table: N vs required Tr (50% threshold) and the 10*Tc rule");
    std::printf("%5s %16s %16s\n", "N", "Tr*_seconds", "frac@Tr=1s");
    bool one_second_suffices = true;
    bool fifty_ms_fails = true;
    double tr_star_20 = 0.0;
    for (const int n : {10, 20, 30}) {
        markov::ChainParams p;
        p.n = n;
        p.tp_sec = 90.0; // IGRP-style period
        p.tc_sec = 0.3;
        p.tr_sec = 0.3;
        p.f2_rounds = markov::f2_diffusion_estimate(n, p.tp_sec, 0.3);
        const double tr_star = markov::critical_tr_seconds(p);
        markov::ChainParams at1 = p;
        at1.tr_sec = 1.0;
        at1.f2_rounds = markov::f2_diffusion_estimate(n, p.tp_sec, 1.0);
        const double frac1 = markov::FJChain{at1}.fraction_unsynchronized();
        std::printf("%5d %16.3f %16.4f\n", n, tr_star, frac1);
        if (n == 20) {
            tr_star_20 = tr_star;
        }
        if (frac1 < 0.9) {
            one_second_suffices = false;
        }
        markov::ChainParams at50ms = p;
        at50ms.tr_sec = 0.05;
        at50ms.f2_rounds = markov::f2_diffusion_estimate(n, p.tp_sec, 0.05);
        if (markov::FJChain{at50ms}.fraction_unsynchronized() > 0.1) {
            fifty_ms_fails = false;
        }
    }

    section("summary");
    std::printf("50%% threshold at N=20: Tr* = %.2f s (paper: 'at least a second')\n",
                tr_star_20);
    std::printf("quick-breakup rule of thumb (10 * Tc): %.1f s\n", 10 * 0.3);

    check(tr_star_20 > 0.3 && tr_star_20 < 3.0,
          "required randomness is of order one second, not milliseconds");
    check(one_second_suffices,
          "a full second of jitter keeps the network predominately "
          "unsynchronized for N up to 30");
    check(fifty_ms_fails,
          "OS-level noise (~50 ms) cannot prevent synchronization");

    return footer(0.0); // the Markov chain only: no simulation
}
