// Ablations of the Periodic Messages model's assumptions (DESIGN.md):
//
//  A. *Immediate notification.* Section 4 assumes every router starts
//     processing an update the instant the sender's timer expires
//     (multi-packet updates streaming over the Tc window). Flipping this
//     to single-packet-at-the-end ("AfterPreparation") removes the exact
//     shared busy-period arithmetic — and with it, hard synchronization.
//     This is why implementations that pace a large update across its
//     processing window couple much more strongly than ones that emit one
//     datagram at the end.
//
//  B. *Cluster-detection tolerance.* Cluster membership is detected by
//     grouping timer-set events within a tolerance; the results must not
//     depend on its exact value across many orders of magnitude.
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "bench/common.hpp"
#include "core/core.hpp"
#include "parallel/parallel.hpp"
#include "stats/stats.hpp"

using namespace routesync;
using namespace routesync::bench;

namespace {

core::ExperimentConfig canonical() {
    core::ExperimentConfig cfg;
    cfg.params.n = 20;
    cfg.params.tp = sim::SimTime::seconds(121);
    cfg.params.tc = sim::SimTime::seconds(0.11);
    cfg.params.tr = sim::SimTime::seconds(0.1);
    cfg.params.seed = 42;
    cfg.max_time = sim::SimTime::seconds(1e6);
    cfg.stop_on_full_sync = true;
    return cfg;
}

struct NotificationOutcome {
    std::optional<double> full_sync_time_sec;
    int max_cluster = 0;
    double end_time_sec = 0.0;
};

NotificationOutcome run_notification(bool immediate) {
    auto cfg = canonical();
    if (!immediate) {
        cfg.params.notification = core::Notification::AfterPreparation;
        cfg.stop_on_full_sync = false;
        cfg.record_rounds = true;
    }
    const auto r = core::run_experiment(cfg);
    NotificationOutcome out;
    out.full_sync_time_sec = r.full_sync_time_sec;
    out.end_time_sec = r.end_time_sec;
    for (const auto& round : r.rounds) {
        out.max_cluster = std::max(out.max_cluster, round.largest);
    }
    return out;
}

struct ToleranceOutcome {
    double full_sync_at = -1.0; ///< the detected full-sync instant, -1 if never
    double end_time_sec = 0.0;
};

/// One detection-tolerance run of section B.
ToleranceOutcome run_tolerance(double tol) {
    sim::Engine engine;
    auto cfg = canonical();
    core::PeriodicMessagesModel model{engine, cfg.params};
    // Pooled per worker thread, like the experiment driver's tracker:
    // reset() reuses the per-size tables across the tolerance sweep
    // instead of reallocating them for every point.
    thread_local std::unique_ptr<core::ClusterTracker> tracker_pool;
    if (tracker_pool == nullptr) {
        tracker_pool = std::make_unique<core::ClusterTracker>(
            cfg.params.n, model.round_length(), sim::SimTime::seconds(tol));
    } else {
        tracker_pool->reset(cfg.params.n, model.round_length(),
                            sim::SimTime::seconds(tol));
    }
    core::ClusterTracker& tracker = *tracker_pool;
    model.on_timer_set = [&](int node, sim::SimTime t) {
        tracker.on_timer_set(node, t);
    };
    tracker.on_full_sync = [&](sim::SimTime) { engine.stop(); };
    engine.run_until(cfg.max_time);
    tracker.finish();
    const auto sync = tracker.full_sync_time();
    return ToleranceOutcome{sync ? sync->sec() : -1.0, engine.now().sec()};
}

} // namespace

int main(int argc, char** argv) {
    const std::size_t jobs = parse_options(argc, argv).jobs;
    header("Ablation", "model assumptions: notification timing and detection "
                       "tolerance");

    double sim_seconds = 0.0;
    section("A. notification timing (canonical parameters, 1e6 s horizon)");
    {
        // The immediate- and delayed-notification experiments are
        // independent; fan them over the workers and print in fixed order.
        const std::vector<NotificationOutcome> outcomes =
            parallel::map_index<NotificationOutcome>(
                2, jobs, [](std::size_t i) { return run_notification(i == 0); });
        sim_seconds += sim_seconds_of(outcomes);
        const NotificationOutcome& immediate = outcomes[0];
        const NotificationOutcome& delayed = outcomes[1];
        const int max_cluster = delayed.max_cluster;
        std::printf("immediate notification : full sync at %s s\n",
                    immediate.full_sync_time_sec
                        ? fmt_time(*immediate.full_sync_time_sec).c_str()
                        : "never");
        std::printf("after preparation      : full sync %s; largest exact "
                    "cluster ever: %d of 20\n",
                    delayed.full_sync_time_sec ? "REACHED (unexpected)" : "never",
                    max_cluster);

        check(immediate.full_sync_time_sec.has_value(),
              "with the paper's immediate-notification assumption the system "
              "synchronizes");
        check(!delayed.full_sync_time_sec.has_value() && max_cluster <= 6,
              "single-packet-at-end updates never reach hard synchronization "
              "(the streaming assumption is load-bearing)");
    }

    section("B. cluster-detection tolerance sweep (same run, Figure 4 config)");
    {
        std::printf("%14s %16s\n", "tolerance_s", "full_sync_at_s");
        const std::vector<double> tols{1e-9, 1e-7, 1e-6, 1e-4, 1e-3};
        // Each tolerance gets its own engine and model, so the sweep fans
        // over the workers; rows print in tolerance order.
        const std::vector<ToleranceOutcome> runs = parallel::map_index<ToleranceOutcome>(
            tols.size(), jobs, [&](std::size_t i) { return run_tolerance(tols[i]); });
        double reference = -1.0;
        bool all_agree = true;
        for (std::size_t i = 0; i < tols.size(); ++i) {
            const double at = runs[i].full_sync_at;
            std::printf("%14.0e %16.1f\n", tols[i], at);
            if (reference < 0) {
                reference = at;
            } else if (std::fabs(at - reference) > 1.0) {
                all_agree = false;
            }
        }
        check(all_agree && reference > 0,
              "the detected synchronization time is identical across six "
              "orders of magnitude of tolerance");
        sim_seconds += sim_seconds_of(runs);
    }

    return footer(sim_seconds);
}
