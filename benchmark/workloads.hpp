// The benchmark's four workloads. Each is generated from a seed and
// drives only public library entry points:
//
//   pm_grid     Fig 13 N x Tc x Tr/Tc grid through parallel::SweepScheduler
//               (1 worker, auto batching -> core::run_experiment_batch)
//   pm_metro    large-N single trials on the scalar kernel
//               (core::run_experiment, batch 1)
//   lan_grid    packet-level RED shared-LAN buffer x load grid through
//               scenarios::run_scenario_sweep (2 workers, hashed traces)
//   pm_monitor  Fig 4 runs with the SyncMonitor on and a HashingSink
//               tracer (core::run_experiment + obs::RunContext)
//
// An *operation* is one trial (pm_*) or one cell (lan_grid); each has a
// result checksum over its simulated results, which is what the recorded
// values and the reference implementations are compared against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.hpp"

namespace routesync::benchmark {

/// Exact sums over one pass's operations.
struct Counts {
    std::uint64_t updates = 0; ///< PM routing-update transmissions
    std::uint64_t events = 0;  ///< PM simulation events processed
    std::uint64_t rounds = 0;  ///< PM rounds closed
    std::uint64_t frames_offered = 0;
    std::uint64_t frames_delivered = 0;
    std::uint64_t collisions = 0;
    std::uint64_t red_early_drops = 0;
    std::uint64_t forced_drops = 0;
    std::uint64_t lan_updates_sent = 0;
    std::uint64_t lan_updates_heard = 0;
    std::uint64_t lan_update_receivers = 0; ///< sum of sent x (n - 1)
    std::uint64_t trace_events = 0;   ///< events the workload's tracers emitted
    std::uint64_t monitor_events = 0; ///< re-arms + transmissions live monitors saw
    std::uint64_t coupling_edges = 0;
    double state_bytes_per_router = 0.0; ///< max over operations
    std::uint64_t items = 0; ///< updates on pm_*, delivered frames on lan_grid
};

struct OpOutcome {
    /// Checksum of the simulated results: compared with the recorded
    /// value and with the reference implementation.
    std::uint64_t result = 0;
    /// Checksum of the result plus every implementation counter (events,
    /// state bytes): compared between repetitions of one run.
    std::uint64_t counts = 0;
    std::string error; ///< non-empty: the call threw or broke an invariant
};

struct Pass {
    double wall_s = 0.0;
    std::vector<OpOutcome> ops;
    Counts counts;
    std::size_t steals = 0;
};

enum class Size { Full, Tiny };

class Workload {
public:
    virtual ~Workload() = default;

    [[nodiscard]] virtual std::size_t op_count() const = 0;
    /// Worker threads of the timed pass (library workers).
    [[nodiscard]] virtual std::size_t workers() const = 0;
    /// Tasks the timed pass hands to a library work pool (0: no pool).
    [[nodiscard]] virtual std::size_t pool_tasks() const = 0;

    /// The timed pass: the whole workload through its entry points.
    virtual Pass run() = 0;
    /// The same entry points with max_time = 0: inputs and every trial or
    /// cell built up to simulated time 0.
    virtual void setup() = 0;
    /// Result checksums from an independent implementation (the engine
    /// backend, the scalar kernel, the virtual-dispatch packet path).
    virtual std::vector<std::uint64_t> reference() = 0;
    /// The timed pass split into one span per entry-point call, all
    /// children of `root`.
    virtual Pass run_traced(SpanRecorder& rec, int root) = 0;
    /// Re-runs every operation with a capturing tracer and replays the
    /// streams through the in-call layers. Appends to `errors` when a
    /// replay disagrees with the live run.
    virtual ReplayTotals replay(std::vector<std::string>& errors) = 0;
};

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload>
make_workload(const std::string& name, std::uint64_t seed, Size size);

} // namespace routesync::benchmark
