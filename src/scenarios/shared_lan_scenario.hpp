// The shared-LAN scenario — the paper's periodic-update workload on a
// CSMA/CD Ethernet whose station queues are under sustained congestion,
// with the queue discipline as the experiment knob.
//
// This is the first composition payoff of the element graph: the same
// topology runs drop-tail or RED per station by flipping
// SharedLanConfig::queue_disc — no code fork. The mechanism under test
// is the one [FJ92] points at ("random early drop fixes it"): routing
// updates share their station's queue with bursty background traffic,
// so under drop-tail a near-full standing queue silently eats updates
// (weakening the coupling *and* the routers' mutual visibility), while
// RED sheds background load early, keeps the average queue short, and
// lets the updates through.
//
// Topology: n stations each run a PeriodicAgent (Tp/Tr/Tc, the paper's
// reset-after-processing rule). A background process injects a fixed
// burst of Data frames into the stations' own queues round-robin, at an
// offered load close to the medium's capacity.
#pragma once

#include <cstdint>
#include <optional>

#include "net/elements/element.hpp"
#include "net/elements/queue_element.hpp"
#include "net/elements/red_queue.hpp"
#include "obs/sync_monitor.hpp"
#include "sim/time.hpp"

namespace routesync::obs {
class MetricsRegistry;
class Tracer;
}

namespace routesync::scenarios {

struct SharedLanScenarioConfig {
    int n = 10;                                     ///< stations/agents
    sim::SimTime tp = sim::SimTime::seconds(30);    ///< update period
    sim::SimTime tr = sim::SimTime::seconds(0.05);  ///< timer jitter
    sim::SimTime tc = sim::SimTime::seconds(0.2);   ///< processing cost
    std::uint32_t update_bytes = 1000;

    net::elements::QueueDisc queue_disc = net::elements::QueueDisc::DropTail;
    std::size_t queue_packets = 8; ///< per-station capacity (small: congested)
    /// RED tuning sized for the 8-packet queue; weight 0.1 (not the WAN
    /// default 0.002) so the average tracks sub-second LAN bursts.
    net::elements::RedTuning red{/*min_th=*/2, /*max_th=*/6, /*max_p=*/0.1,
                                 /*weight=*/0.1, /*seed=*/7};

    double lan_rate_bps = 1e6; ///< slow medium: congestion at small frame counts
    /// Background load: `bg_burst` Data frames of `bg_bytes` injected
    /// every `bg_period` into station (burst_index mod n). Defaults give
    /// ~82 % offered utilization — a persistent, oscillating backlog.
    int bg_burst = 10;
    sim::SimTime bg_period = sim::SimTime::millis(50);
    std::uint32_t bg_bytes = 512;

    sim::SimTime max_time = sim::SimTime::seconds(5000);
    std::uint64_t seed = 1; ///< initial phase draws (and LAN backoff via +1)

    /// Synchronization observatory (the engine path's --monitor, here for
    /// the element-graph workload): when set, a SyncMonitor rides the
    /// same agent re-arm stream the ClusterTracker sees and the result
    /// carries a SyncReport + coupling graph. Off by default — the
    /// unmonitored run is untouched.
    bool monitor = false;
    double sync_threshold = 0.95;
    double sync_hysteresis = 0.02;

    /// Element-graph dispatch for the scenario's own graph and the LAN's
    /// station queues. Virtual is the differential reference.
    net::elements::DispatchMode dispatch = net::elements::DispatchMode::Fast;

    /// When set, the scenario's engine emits trace events through this
    /// tracer (attached before any component is built, so queue and
    /// medium events are captured from t = 0). The caller owns it; null —
    /// the default — leaves the run untraced and untouched.
    obs::Tracer* tracer = nullptr;
};

struct SharedLanScenarioResult {
    // Medium counters (SharedLanStats, flattened).
    std::uint64_t frames_offered = 0;
    std::uint64_t frames_delivered = 0;
    std::uint64_t collisions = 0;
    std::uint64_t drops_queue_full = 0; ///< all queue drops, early + forced
    // RED decomposition of the queue drops (0 under drop-tail).
    std::uint64_t red_early_drops = 0;
    std::uint64_t red_forced_drops = 0;
    // Agent coupling counters.
    std::uint64_t updates_sent = 0;  ///< timer firings (offered updates)
    std::uint64_t updates_heard = 0; ///< updates that survived queue + medium
    // Synchronization measures.
    int largest_cluster = 0;
    std::optional<double> largest_cluster_time_s; ///< first reach of largest
    std::optional<double> full_sync_time_s;
    double end_time_s = 0.0;
    /// Events the run's engine executed (in manifests as
    /// engine.events_processed; no CLI table prints it).
    std::uint64_t events_processed = 0;
    /// Events the run's engine pushed onto its queue (library only, like
    /// events_processed). The frame-cycle steps SharedLan runs in place
    /// are counted above but never pushed.
    std::uint64_t queue_pushes = 0;
    // Synchronization observatory (present when config.monitor was set).
    std::optional<obs::SyncReport> sync;
    obs::CouplingGraph sync_coupling;
    /// The element graph's wiring (ElementGraph::wire_spec()), recorded
    /// unconditionally so a manifest can embed the topology that ran.
    std::string wire_spec;
};

/// Runs the scenario to full synchronization or `max_time`, whichever
/// comes first. Deterministic for a fixed config. Throws
/// std::invalid_argument when bg_burst > 0 and bg_period <= 0 (the run
/// would never advance) or when max_time < 0.
SharedLanScenarioResult run_shared_lan_scenario(const SharedLanScenarioConfig& config);

/// Adds the run's counters to `reg`: the medium's (lan.frames_offered,
/// lan.frames_delivered, lan.collisions, lan.drops_queue), the agents'
/// (agents.updates_sent, agents.updates_heard) and the engine's
/// (engine.events_processed, the name PM runs publish theirs under).
/// Counters sum, so a sweep that calls this once per cell in submission
/// order gets the same totals for every --jobs value.
void publish_shared_lan_metrics(obs::MetricsRegistry& reg,
                                const SharedLanScenarioResult& result);

} // namespace routesync::scenarios
