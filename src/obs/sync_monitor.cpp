#include "obs/sync_monitor.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

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
    if (config_.tolerance_sec < 0.0) {
        throw std::invalid_argument{"SyncMonitor: tolerance must be >= 0"};
    }
    config_.hysteresis =
        hysteresis_from_micro(hysteresis_to_micro(config_.hysteresis));

    const auto n = static_cast<std::size_t>(config_.n);
    phasor_re_.assign(n, 0.0);
    phasor_im_.assign(n, 0.0);
    inv_n_ = 1.0 / static_cast<double>(config_.n);
    inv_period_ = 1.0 / config_.period_sec;

    if (tracer_ != nullptr) {
        tracer_->emit(TraceEventType::SyncConfig, sim::SimTime::zero(), -1,
                      hysteresis_to_micro(config_.hysteresis),
                      config_.period_sec, config_.threshold);
    }
}

void SyncMonitor::update_order_parameter(int node, sim::SimTime t) {
    const double off =
        t.mod(sim::SimTime::seconds(config_.period_sec)).sec();
    const double theta = 2.0 * std::numbers::pi * (off * inv_period_);
    const double re = std::cos(theta);
    const double im = std::sin(theta);
    const auto idx = static_cast<std::size_t>(node);
    // An unarmed node's phasor is +0.0, and x - (+0.0) is x for every x
    // (-0.0 included), so the first re-arm needs no special case.
    sum_re_ -= phasor_re_[idx];
    sum_im_ -= phasor_im_[idx];
    phasor_re_[idx] = re;
    phasor_im_[idx] = im;
    sum_re_ += re;
    sum_im_ += im;
    r_ = std::sqrt(sum_re_ * sum_re_ + sum_im_ * sum_im_) * inv_n_;
    if (r_ > report_.r_max) {
        report_.r_max = r_;
    }

    if (!in_sync_ && r_ >= config_.threshold) {
        in_sync_ = true;
        ++report_.transitions;
        transitions_.push_back(SyncTransitionRecord{t, true, r_});
        if (report_.time_to_sync_sec < 0.0) {
            report_.time_to_sync_sec = t.sec();
        }
        if (tracer_ != nullptr) {
            tracer_->emit(TraceEventType::SyncTransition, t, -1, 1, r_,
                          config_.threshold);
        }
    } else if (in_sync_ && r_ < config_.threshold - config_.hysteresis) {
        in_sync_ = false;
        ++report_.transitions;
        transitions_.push_back(SyncTransitionRecord{t, false, r_});
        if (tracer_ != nullptr) {
            tracer_->emit(TraceEventType::SyncTransition, t, -1, 0, r_,
                          config_.threshold);
        }
    }
}

void SyncMonitor::update_clusters(sim::SimTime t) {
    if (group_open_ && t < group_last_) {
        throw std::logic_error{"SyncMonitor: events out of order"};
    }
    if (group_open_ &&
        (t - group_last_).sec() <= config_.tolerance_sec) {
        ++group_size_;
        group_last_ = t;
    } else {
        if (group_open_) {
            finalize_group();
        }
        group_open_ = true;
        group_start_ = t;
        group_last_ = t;
        group_size_ = 1;
        group_round_ = event_round_;
    }
    group_last_round_ = event_round_;
    if (++idx_in_round_ == config_.n) {
        idx_in_round_ = 0;
        ++event_round_;
    }
}

void SyncMonitor::finalize_group() {
    if (group_round_ > current_round_) {
        close_round();
        current_round_ = group_round_;
        round_sizes_.clear();
        if (spill_size_ > 0) {
            // The straddling group counts toward this round too (the
            // ClusterTracker's spill rule).
            round_sizes_.push_back(spill_size_);
            spill_size_ = 0;
        }
    }
    round_sizes_.push_back(group_size_);
    if (group_last_round_ > group_round_ && group_size_ > spill_size_) {
        spill_size_ = group_size_;
    }
    group_open_ = false;
    group_size_ = 0;
}

void SyncMonitor::close_round() {
    if (round_sizes_.empty()) {
        return; // before the first completed group
    }
    // Only the last closed round's entropy is reported, so keep its
    // sizes and leave the logarithms to finish().
    last_round_sizes_.swap(round_sizes_);
    ++report_.rounds_closed;
}

void SyncMonitor::settle_last_round() {
    if (last_round_sizes_.empty()) {
        return; // no round ever closed
    }
    double total = 0.0;
    int largest = 0;
    for (const int s : last_round_sizes_) {
        total += static_cast<double>(s);
        if (s > largest) {
            largest = s;
        }
    }
    double entropy = 0.0;
    for (const int s : last_round_sizes_) {
        const double p = static_cast<double>(s) / total;
        entropy -= p * std::log(p);
    }
    report_.entropy_last =
        config_.n > 1 ? entropy / std::log(static_cast<double>(config_.n))
                      : 0.0;
    report_.largest_fraction_last =
        static_cast<double>(largest) * inv_n_;
}

void SyncMonitor::on_timer_set(int node, sim::SimTime t) {
    if (node < 0 || node >= config_.n) {
        throw std::out_of_range{"SyncMonitor: node out of range"};
    }
    ++report_.rearms;
    // Attribution: the most recent transmission is the one whose busy-
    // period extension this re-arm waited out; before any transmission
    // the node can only have released itself.
    coupling_.add_edge(last_tx_node_ >= 0 ? last_tx_node_ : node, node);
    update_order_parameter(node, t);
    update_clusters(t);
}

void SyncMonitor::on_transmit(int node, sim::SimTime /*t*/) {
    ++report_.transmissions;
    last_tx_node_ = node;
}

void SyncMonitor::finish(sim::SimTime at) {
    if (finished_) {
        return;
    }
    finished_ = true;
    if (group_open_) {
        finalize_group();
    }
    close_round();
    round_sizes_.clear();
    settle_last_round();
    report_.r_last = r_;
    report_.in_sync = in_sync_;
    if (tracer_ != nullptr) {
        for (const CouplingGraph::Edge& e : coupling_.edges()) {
            tracer_->emit(TraceEventType::CouplingEdge, at, e.dst, e.src,
                          static_cast<double>(e.weight));
        }
    }
}

SyncReplayResult replay_sync(const std::vector<TraceEvent>& events,
                             const SyncReplayOverrides& overrides) {
    SyncReplayResult result;

    int max_node = -1;
    for (const TraceEvent& e : events) {
        switch (e.type) {
        case TraceEventType::TimerSet:
            if (e.node > max_node) {
                max_node = e.node;
            }
            break;
        case TraceEventType::SyncConfig:
            result.have_config = true;
            result.config.hysteresis = hysteresis_from_micro(e.a);
            result.config.period_sec = e.b;
            result.config.threshold = e.x;
            break;
        case TraceEventType::SyncTransition:
            result.recorded.push_back(
                SyncTransitionRecord{e.time, e.a != 0, e.b});
            break;
        case TraceEventType::CouplingEdge:
            result.recorded_edges.push_back(CouplingGraph::Edge{
                static_cast<int>(e.a), e.node,
                static_cast<std::uint64_t>(std::llround(e.b))});
            break;
        default:
            break;
        }
    }
    if (max_node < 0) {
        throw std::runtime_error{
            "replay_sync: trace has no timer_set events"};
    }

    if (!result.have_config) {
        result.config.threshold = 0.95;
        result.config.hysteresis = 0.02;
    }
    // The initial arms cover every node, so max node + 1 is exact.
    result.config.n = overrides.n > 0 ? overrides.n : max_node + 1;
    if (overrides.period_sec > 0.0) {
        result.config.period_sec = overrides.period_sec;
    }
    if (overrides.threshold > 0.0) {
        result.config.threshold = overrides.threshold;
    }
    if (overrides.hysteresis >= 0.0) {
        result.config.hysteresis = overrides.hysteresis;
    }
    if (!(result.config.period_sec > 0.0)) {
        throw std::runtime_error{
            "replay_sync: no round length available (trace has no "
            "sync_config event; pass --round)"};
    }

    SyncMonitor monitor{result.config};
    std::vector<bool> skipped(static_cast<std::size_t>(result.config.n),
                              false);
    sim::SimTime last = sim::SimTime::zero();
    for (const TraceEvent& e : events) {
        last = e.time;
        if (e.type == TraceEventType::UpdateTx) {
            monitor.on_transmit(e.node, e.time);
            continue;
        }
        if (e.type != TraceEventType::TimerSet) {
            continue;
        }
        const auto node = static_cast<std::size_t>(e.node);
        if (node < skipped.size() && !skipped[node]) {
            // The model constructor's initial arm, emitted before the
            // live monitor was wired up (see header).
            skipped[node] = true;
            ++result.initial_skipped;
            continue;
        }
        monitor.on_timer_set(e.node, e.time);
        ++result.timer_sets_fed;
    }
    monitor.finish(last);
    result.report = monitor.report();
    result.coupling = monitor.coupling();
    result.transitions = monitor.transitions();
    return result;
}

} // namespace routesync::obs
