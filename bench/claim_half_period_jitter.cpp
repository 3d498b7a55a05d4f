// Section 6 claim — "setting the timer each round to a time from the
// uniform distribution on the interval [0.5*Tp, 1.5*Tp] seconds would be
// a simple way to avoid synchronized routing messages."
//
// Three policies from a worst-case synchronized start:
//   * half-period jitter  — breaks up within a few rounds, never re-locks;
//   * small jitter        — never breaks (the failure mode);
//   * reset-at-expiry     — the RFC 1058 alternative: keeps whatever
//                           synchronization it starts with (the drawback
//                           the paper calls out).
#include <cstdio>
#include <memory>

#include "bench/common.hpp"
#include "core/core.hpp"

using namespace routesync;
using namespace routesync::bench;

namespace {

core::ExperimentConfig base_config() {
    core::ExperimentConfig cfg;
    cfg.params.n = 20;
    cfg.params.tp = sim::SimTime::seconds(121);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.start = core::StartCondition::Synchronized;
    cfg.params.seed = 77;
    cfg.max_time = sim::SimTime::seconds(1e6);
    cfg.record_rounds = true;
    return cfg;
}

} // namespace

int main(int argc, char** argv) {
    parse_options(argc, argv);
    header("Section 6 claim",
           "uniform [0.5*Tp, 1.5*Tp] timers eliminate synchronization "
           "(synchronized start, N=20, Tc=0.11 s, 1e6 s horizon)");

    section("half-period jitter");
    auto cfg = base_config();
    cfg.stop_on_breakup_threshold = 0;
    cfg.make_policy = [] {
        return std::make_unique<core::HalfPeriodJitter>(sim::SimTime::seconds(121));
    };
    const auto half = core::run_experiment(cfg);
    std::uint64_t relocked = 0;
    for (const auto& round : half.rounds) {
        if (round.largest >= 5) {
            ++relocked;
        }
    }
    const double unsync_frac =
        static_cast<double>(half.rounds_unsynchronized) /
        static_cast<double>(half.rounds_closed);
    double breakup = -1.0;
    if (half.first_hit_down[1]) {
        breakup = *half.first_hit_down[1];
    }
    std::printf("breakup (largest cluster 1) after : %.0f s (~%.0f rounds)\n",
                breakup, breakup / half.round_length_sec);
    std::printf("rounds fully unsynchronized       : %.1f%%\n", 100 * unsync_frac);
    std::printf("rounds with any cluster >= 5      : %llu of %llu\n",
                static_cast<unsigned long long>(relocked),
                static_cast<unsigned long long>(half.rounds_closed));

    check(breakup > 0 && breakup < 3000,
          "half-period jitter dissolves full synchronization within a few rounds");
    check(unsync_frac > 0.5 &&
              static_cast<double>(relocked) <
                  0.005 * static_cast<double>(half.rounds_closed),
          "and the system never drifts back towards synchronization "
          "(clusters of >= 5 in <0.5% of rounds)");

    section("small jitter (Tr = 0.05 s < Tc/2): the failure mode");
    auto small = base_config();
    small.params.tr = sim::SimTime::seconds(0.05);
    const auto locked = core::run_experiment(small);
    bool always_locked = true;
    for (const auto& round : locked.rounds) {
        if (round.largest != 20) {
            always_locked = false;
        }
    }
    std::printf("every round fully synchronized: %s\n", always_locked ? "yes" : "no");
    check(always_locked, "below the Tc/2 threshold synchronization is permanent");

    section("reset-at-expiry (RFC 1058 alternative)");
    auto rfc = base_config();
    rfc.params.tr = sim::SimTime::zero();
    rfc.params.reset_at_expiry = true;
    const auto frozen = core::run_experiment(rfc);
    bool stays_locked = true;
    for (const auto& round : frozen.rounds) {
        if (round.largest != 20) {
            stays_locked = false;
        }
    }
    std::printf("initially-synchronized network stays synchronized: %s\n",
                stays_locked ? "yes" : "no");
    check(stays_locked,
          "the free-running clock has no mechanism to break up existing "
          "synchronization (the paper's stated drawback)");

    return footer(half.end_time_sec + locked.end_time_sec + frozen.end_time_sec);
}
