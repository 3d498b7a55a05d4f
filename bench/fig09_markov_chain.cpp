// Figure 9 — "The Markov chain": the birth-death chain over largest
// cluster size, with the paper's transition probabilities (Eqs. 1-2)
// tabulated for the canonical parameters. The diagram becomes a table:
// one row per state with p(i,i-1), p(i,i), p(i,i+1), the per-round phase
// drift, and the conditional step times t(i,i±1).
#include <cstdio>

#include "bench/common.hpp"
#include "markov/markov.hpp"

using namespace routesync;
using namespace routesync::bench;

int main(int argc, char** argv) {
    parse_options(argc, argv);
    header("Figure 9",
           "the Markov chain: states and transition probabilities "
           "(N=20, Tp=121 s, Tc=0.11 s, Tr=0.11 s, f(2)=19)");

    markov::ChainParams p;
    p.n = 20;
    p.tp_sec = 121.0;
    p.tr_sec = 0.11;
    p.tc_sec = 0.11;
    p.f2_rounds = 19.0;
    const markov::FJChain chain{p};

    section("transition structure");
    std::printf("%5s %12s %12s %12s %12s %10s %10s\n", "state", "p(i,i-1)",
                "p(i,i)", "p(i,i+1)", "drift_s", "t_down", "t_up");
    for (int i = 1; i <= p.n; ++i) {
        const double down = chain.p_down(i);
        const double up = chain.p_up(i);
        std::printf("%5d %12.6f %12.6f %12.6f %12.6f %10.3f %10.3f\n", i, down,
                    1.0 - down - up, up, chain.drift_seconds(i), chain.t_down(i),
                    chain.t_up(i));
    }

    section("stationary distribution (extension: detailed balance)");
    const auto pi = chain.stationary_distribution();
    for (int i = 1; i <= p.n; ++i) {
        std::printf("pi(%2d) = %.3e\n", i, pi[static_cast<std::size_t>(i)]);
    }
    std::printf("mean stationary cluster size: %.2f of %d\n",
                chain.mean_stationary_cluster_size(), p.n);

    bool rows_are_distributions = true;
    bool down_monotone = true;
    for (int i = 2; i <= p.n; ++i) {
        const double down = chain.p_down(i);
        const double up = chain.p_up(i);
        if (down < 0 || up < 0 || down + up > 1.0) {
            rows_are_distributions = false;
        }
        if (i > 2 && chain.p_down(i) >= chain.p_down(i - 1)) {
            down_monotone = false;
        }
    }
    check(rows_are_distributions, "every row is a probability distribution");
    check(down_monotone,
          "break-up probability falls with cluster size (bigger clusters stick)");
    check(chain.p_up(p.n) == 0.0, "state N is the top of the ladder");
    check(chain.drift_seconds(2) > 0,
          "at these parameters a pair drifts forward and can grow");

    return footer(0.0); // the Markov chain only: no simulation
}
