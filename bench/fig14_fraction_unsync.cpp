// Figure 14 — "The fraction of time unsynchronized, as a function of the
// random component Tr": f(N)/(f(N)+g(1)) for N = 20. The paper's point:
// the flip from predominately-synchronized to predominately-unsynchronized
// is sharp, not gradual.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "markov/markov.hpp"
#include "parallel/parallel.hpp"

using namespace routesync;
using namespace routesync::bench;

namespace {

double fraction_at(double tr_over_tc) {
    markov::ChainParams p;
    p.n = 20;
    p.tp_sec = 121.0;
    p.tc_sec = 0.11;
    p.tr_sec = tr_over_tc * p.tc_sec;
    p.f2_rounds = markov::f2_diffusion_estimate(p.n, p.tp_sec, p.tr_sec);
    return markov::FJChain{p}.fraction_unsynchronized();
}

} // namespace

int main(int argc, char** argv) {
    const std::size_t jobs = parse_options(argc, argv).jobs;
    header("Figure 14",
           "fraction of time unsynchronized vs Tr (N=20, Tp=121 s, Tc=0.11 s)");

    section("series: Tr/Tc vs fraction unsynchronized");
    std::printf("%7s %12s\n", "Tr/Tc", "fraction");
    double lo_edge = -1.0;
    double hi_edge = -1.0;
    std::vector<double> grid;
    for (double factor = 0.5; factor <= 3.001; factor += 0.05) {
        grid.push_back(factor);
    }
    const auto fracs = parallel::map_index<double>(
        grid.size(), jobs, [&](std::size_t i) { return fraction_at(grid[i]); });
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const double frac = fracs[i];
        std::printf("%7.2f %12.6f\n", grid[i], frac);
        if (lo_edge < 0 && frac > 0.1) {
            lo_edge = grid[i];
        }
        if (hi_edge < 0 && frac > 0.9) {
            hi_edge = grid[i];
        }
    }

    section("summary");
    std::printf("transition: fraction crosses 0.1 at Tr = %.2f*Tc and 0.9 at "
                "Tr = %.2f*Tc (width %.2f*Tc)\n",
                lo_edge, hi_edge, hi_edge - lo_edge);
    const double tr_star =
        markov::critical_tr_seconds(markov::ChainParams{
            .n = 20, .tp_sec = 121.0, .tr_sec = 0.11, .tc_sec = 0.11,
            .f2_rounds = 19.0});
    std::printf("bisected 50%% threshold: Tr* = %.3f s = %.2f*Tc\n", tr_star,
                tr_star / 0.11);

    check(fraction_at(1.0) < 0.05,
          "Tr ~ Tc: predominately synchronized (paper's left region)");
    check(fraction_at(2.8) > 0.95,
          "Tr ~ 2.8*Tc: predominately unsynchronized (paper's right region)");
    check(lo_edge > 0 && hi_edge > 0 && (hi_edge - lo_edge) <= 0.75,
          "the transition is sharp: 0.1 -> 0.9 within ~half a Tc of jitter");
    check(lo_edge >= 1.0 && hi_edge <= 2.8,
          "the transition falls inside the paper's 1.0-2.5 Tr/Tc window");

    return footer(0.0); // the Markov chain only: no simulation
}
