#include "obs/sync_monitor.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace routesync::obs {

namespace {

/// The hysteresis travels through sync_config's integer slot in
/// microunits; live and replayed monitors both reconstruct the double
/// with this one expression, so they run on the identical value.
double hysteresis_from_micro(std::int64_t micro) {
    return static_cast<double>(micro) / 1e6;
}

std::int64_t hysteresis_to_micro(double h) {
    return std::llround(h * 1e6);
}

/// The least double q whose sqrt(q) * inv_n reaches `level`, or 0 for a
/// level that no r falls below (level <= 0). sqrt and a multiply by a
/// positive constant both round monotonically, so the q that reach the
/// level are exactly those from the answer up. (level * n)^2 lies a few
/// ulps from it; the answer is found by stepping ulps from there.
double least_square_reaching(double level, int n, double inv_n) {
    if (!(level > 0.0)) {
        return 0.0;
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto reaches = [level, inv_n](double q) {
        return std::sqrt(q) * inv_n >= level;
    };
    const double scaled = level * static_cast<double>(n);
    double q = scaled * scaled;
    while (!reaches(q)) {
        q = std::nextafter(q, kInf);
    }
    for (double below = std::nextafter(q, -kInf); reaches(below);
         below = std::nextafter(below, -kInf)) {
        q = below;
    }
    return q;
}

} // namespace

SyncMonitor::SyncMonitor(const SyncMonitorConfig& config, Tracer* tracer)
    : config_{config}, tracer_{tracer} {
    if (config_.n < 1) {
        throw std::invalid_argument{"SyncMonitor: n must be >= 1"};
    }
    if (!(config_.period_sec > 0.0)) {
        throw std::invalid_argument{"SyncMonitor: period must be positive"};
    }
    if (!(config_.threshold > 0.0) || config_.threshold > 1.0) {
        throw std::invalid_argument{"SyncMonitor: threshold must be in (0, 1]"};
    }
    if (config_.hysteresis < 0.0 || config_.hysteresis >= config_.threshold) {
        throw std::invalid_argument{
            "SyncMonitor: hysteresis must be in [0, threshold)"};
    }
    config_.hysteresis =
        hysteresis_from_micro(hysteresis_to_micro(config_.hysteresis));

    const auto n = static_cast<std::size_t>(config_.n);
    phasor_re_.assign(n, 0.0);
    phasor_im_.assign(n, 0.0);
    inv_n_ = 1.0 / static_cast<double>(config_.n);
    inv_period_ = 1.0 / config_.period_sec;
    squares_.up = least_square_reaching(config_.threshold, config_.n, inv_n_);
    squares_.down = least_square_reaching(
        config_.threshold - config_.hysteresis, config_.n, inv_n_);
    cache_phasor(sim::SimTime::zero()); // the cache is never empty

    if (tracer_ != nullptr) {
        tracer_->emit(TraceEventType::SyncConfig, sim::SimTime::zero(), -1,
                      hysteresis_to_micro(config_.hysteresis),
                      config_.period_sec, config_.threshold);
    }
}

void SyncMonitor::cache_phasor(sim::SimTime t) {
    const double off =
        t.mod(sim::SimTime::seconds(config_.period_sec)).sec();
    const double theta = 2.0 * std::numbers::pi * (off * inv_period_);
    cached_bits_ = std::bit_cast<std::uint64_t>(t.sec());
    cached_re_ = std::cos(theta);
    cached_im_ = std::sin(theta);
}

void SyncMonitor::cross(sim::SimTime t) {
    in_sync_ = !in_sync_;
    const double r = r_of(q_);
    ++report_.transitions;
    transitions_.push_back(SyncTransitionRecord{t, in_sync_, r});
    if (in_sync_ && report_.time_to_sync_sec < 0.0) {
        report_.time_to_sync_sec = t.sec();
    }
    if (tracer_ != nullptr) {
        tracer_->emit(TraceEventType::SyncTransition, t, -1, in_sync_ ? 1 : 0, r,
                      config_.threshold);
    }
}

void SyncMonitor::settle_rounds(std::span<const int> last_round,
                                std::uint64_t rounds_closed) {
    report_.rounds_closed = rounds_closed;
    if (last_round.empty()) {
        return; // no round ever closed
    }
    double total = 0.0;
    int largest = 0;
    for (const int s : last_round) {
        total += static_cast<double>(s);
        if (s > largest) {
            largest = s;
        }
    }
    double entropy = 0.0;
    for (const int s : last_round) {
        const double p = static_cast<double>(s) / total;
        entropy -= p * std::log(p);
    }
    report_.entropy_last =
        config_.n > 1 ? entropy / std::log(static_cast<double>(config_.n))
                      : 0.0;
    report_.largest_fraction_last =
        static_cast<double>(largest) * inv_n_;
}

void SyncMonitor::throw_node_out_of_range() {
    throw std::out_of_range{"SyncMonitor: node out of range"};
}

void SyncMonitor::finish(sim::SimTime at) {
    if (finished_) {
        return;
    }
    finished_ = true;
    report_.r_last = r_of(q_);
    report_.in_sync = in_sync_;
    if (tracer_ != nullptr) {
        for (const CouplingGraph::Edge& e : coupling_.edges()) {
            tracer_->emit(TraceEventType::CouplingEdge, at, e.dst, e.src,
                          static_cast<double>(e.weight));
        }
    }
}

SyncMonitorConfig sync_config_from_event(const TraceEvent& e, int n) {
    return SyncMonitorConfig{.n = n,
                             .period_sec = e.b,
                             .threshold = e.x,
                             .hysteresis = hysteresis_from_micro(e.a)};
}

void publish_sync_metrics(MetricsRegistry& reg, const SyncReport& report,
                          const CouplingGraph& coupling) {
    reg.add("sync.rearms", report.rearms);
    reg.add("sync.transitions", report.transitions);
    reg.add("sync.coupling_edges",
            static_cast<std::uint64_t>(coupling.edge_count()));
    reg.set_gauge("sync.r_last", report.r_last);
    reg.set_gauge("sync.r_max", report.r_max);
    reg.set_gauge("sync.entropy_last", report.entropy_last);
    reg.set_gauge("sync.largest_fraction_last", report.largest_fraction_last);
    if (report.time_to_sync_sec >= 0.0) {
        reg.add("sync.synced_runs", 1);
        reg.observe("sync.time_to_sync_sec", report.time_to_sync_sec);
    }
}

} // namespace routesync::obs
