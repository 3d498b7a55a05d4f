// Extension — mixed hardware: what synchronizes when route processors
// differ in speed?
//
// The Periodic Messages model assumes every router takes the same Tc per
// message. Real networks mix fast and slow boxes, and the busy-period
// arithmetic then sorts routers into *classes*: after a joint transmission
// wave, all slow routers finish processing at one instant and all fast
// routers at another. The network does not form one cluster — it forms one
// cluster PER HARDWARE CLASS, and the classes beat against each other
// (their periods differ by the processing-time gap).
//
// Practical consequence: upgrading half the routers does not halve the
// update storm — it creates two storms per period. (We first met this
// effect as a bug in the Figure 3 testbed, where unequal router degree
// split the LAN's cluster; this bench isolates it.)
#include <cstdio>
#include <map>
#include <vector>

#include "bench/common.hpp"
#include "core/core.hpp"
#include "parallel/parallel.hpp"
#include "stats/stats.hpp"

using namespace routesync;
using namespace routesync::bench;

namespace {

struct ClassOutcome {
    double fast_spread = 0.0;
    double slow_spread = 0.0;
    double separation = 0.0;
    /// Final reset instant per node, for the detailed seed's breakdown.
    std::vector<double> last_sets;
};

ClassOutcome run_hetero(std::uint64_t seed) {
    sim::Engine engine;
    core::ModelParams p;
    p.n = 20;
    p.tp = sim::SimTime::seconds(121);
    p.tr = sim::SimTime::seconds(0.05); // below every class's Tc/2
    p.tc = sim::SimTime::seconds(0.11); // overridden per node below
    p.start = core::StartCondition::Synchronized;
    p.seed = seed;
    for (int i = 0; i < 20; ++i) {
        p.per_node_tc.push_back(i < 10 ? 0.11 : 0.33);
    }
    core::PeriodicMessagesModel model{engine, p};

    // Record each node's timer-set times late in the run.
    std::vector<std::vector<double>> sets(20);
    model.on_timer_set = [&](int node, sim::SimTime t) {
        if (t.sec() > 50000) {
            sets[static_cast<std::size_t>(node)].push_back(t.sec());
        }
    };
    engine.run_until(sim::SimTime::seconds(60000));

    ClassOutcome out;
    std::vector<double> fast_resets;
    std::vector<double> slow_resets;
    for (int i = 0; i < 20; ++i) {
        const auto& series = sets[static_cast<std::size_t>(i)];
        if (series.empty()) {
            continue;
        }
        out.last_sets.push_back(series.back());
        (i < 10 ? fast_resets : slow_resets).push_back(series.back());
    }
    auto spread = [](const std::vector<double>& xs) {
        double lo = xs.front();
        double hi = xs.front();
        for (const double x : xs) {
            lo = std::min(lo, x);
            hi = std::max(hi, x);
        }
        return hi - lo;
    };
    out.fast_spread = spread(fast_resets);
    out.slow_spread = spread(slow_resets);
    out.separation = std::fabs(fast_resets.front() - slow_resets.front());
    return out;
}

} // namespace

int main(int argc, char** argv) {
    Options& options = parse_options(
        argc, argv, "heterogeneous route processors: per-class synchronization");
    const std::size_t jobs = options.jobs;
    options.sim_seconds = 60000.0;
    header("Extension",
           "heterogeneous route processors: per-class synchronization "
           "(10 fast nodes Tc=0.11 s, 10 slow nodes Tc=0.33 s, sync start)");

    // Seed 77 is the detailed run the shape checks below examine; the
    // rest confirm the class split is not a quirk of one RNG stream. All
    // trials are independent, so they fan over the workers.
    const std::vector<std::uint64_t> seeds{77, 177, 1077, 2077, 3077};
    const std::vector<ClassOutcome> outcomes = parallel::map_index<ClassOutcome>(
        seeds.size(), jobs, [&](std::size_t i) { return run_hetero(seeds[i]); });
    const ClassOutcome& detail = outcomes[0];

    section("final-round reset times by node class (seed 77)");
    std::map<long long, int> groups; // quantized to ms
    for (const double t : detail.last_sets) {
        groups[static_cast<long long>(t * 1000.0)]++;
    }
    if (FILE* f = chatter()) {
        for (const auto& [t_ms, count] : groups) {
            std::fprintf(f, "reset at %.3f s : %d nodes\n",
                         static_cast<double>(t_ms) / 1000.0, count);
        }
    }

    section("summary (seed 77)");
    if (FILE* f = chatter()) {
        std::fprintf(f, "fast-class spread  : %.4f s\n", detail.fast_spread);
        std::fprintf(f, "slow-class spread  : %.4f s\n", detail.slow_spread);
        std::fprintf(f, "class separation   : %.3f s\n", detail.separation);
    }

    section("multi-seed robustness");
    if (FILE* f = chatter()) {
        std::fprintf(f, "%8s %18s %18s %16s\n", "seed", "fast_spread_s",
                     "slow_spread_s", "separation_s");
    }
    int seeds_with_split = 0;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        const ClassOutcome& out = outcomes[i];
        if (FILE* f = chatter()) {
            std::fprintf(f, "%8llu %18.4f %18.4f %16.3f\n",
                         static_cast<unsigned long long>(seeds[i]), out.fast_spread,
                         out.slow_spread, out.separation);
        }
        if (out.fast_spread < 0.5 && out.slow_spread < 0.5 &&
            out.separation > 0.5) {
            ++seeds_with_split;
        }
    }

    check(detail.fast_spread < 0.5 && detail.slow_spread < 0.5,
          "each hardware class stays internally synchronized");
    check(detail.separation > 0.5,
          "the classes do NOT share a cluster: two storms per period, not one");
    check(seeds_with_split == static_cast<int>(seeds.size()),
          "the per-class split reproduces across every seed");

    return footer();
}
