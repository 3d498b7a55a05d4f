// Figure 6 — "The cluster graph, showing the largest cluster for each
// round": the Figure 4 run summarized as (round time, largest cluster).
#include <cstdio>

#include "bench/common.hpp"
#include "core/core.hpp"

using namespace routesync;
using namespace routesync::bench;

int main(int argc, char** argv) {
    parse_options(argc, argv);
    header("Figure 6", "largest cluster per round, Figure 4 parameters");

    core::ExperimentConfig cfg;
    cfg.params.n = 20;
    cfg.params.tp = sim::SimTime::seconds(121);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.tr = sim::SimTime::seconds(0.1);
    cfg.params.seed = 42;
    cfg.max_time = sim::SimTime::seconds(1e5);
    cfg.record_rounds = true;
    const auto r = core::run_experiment(cfg);

    section("series: time (s) vs largest cluster in the round");
    std::printf("%10s %8s\n", "time_s", "largest");
    for (const auto& round : r.rounds) {
        std::printf("%10.0f %8d\n", round.end_time.sec(), round.largest);
    }

    section("summary");
    std::printf("rounds: %llu, final largest cluster: %d\n",
                static_cast<unsigned long long>(r.rounds_closed),
                r.rounds.empty() ? 0 : r.rounds.back().largest);

    // The paper's observation: growth is not gradual — small clusters form
    // and break for a long time, then one large cluster sweeps up the rest.
    std::uint64_t rounds_small = 0; // largest <= 5 of N = 20
    std::uint64_t rounds_before_sync = 0;
    bool synced = false;
    for (const auto& round : r.rounds) {
        if (round.largest == 20) {
            synced = true;
        }
        if (!synced) {
            ++rounds_before_sync;
            if (round.largest <= 5) {
                ++rounds_small;
            }
        }
    }
    check(!r.rounds.empty() && r.rounds.back().largest == 20,
          "the run ends fully synchronized (largest cluster = N)");
    check(rounds_before_sync > 0 &&
              rounds_small > rounds_before_sync / 2,
          "before the transition, most rounds hold only small clusters "
          "(no gradual 'clumping up')");

    return footer(r.end_time_sec);
}
