#include "net/elements/red_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace routesync::net::elements {

RedQueue::RedQueue(sim::Engine& engine, std::string name,
                   std::size_t max_packets, const RedTuning& tuning)
    : QueueElement{engine, std::move(name)},
      max_packets_{max_packets},
      tuning_{tuning},
      gen_{tuning.seed} {
    items_.reserve(std::min(max_packets, kRingReservePackets));
    if (tuning_.min_th < 0.0 || tuning_.max_th <= tuning_.min_th) {
        throw std::invalid_argument{"RedQueue: need 0 <= min_th < max_th"};
    }
    if (tuning_.max_p <= 0.0 || tuning_.max_p > 1.0) {
        throw std::invalid_argument{"RedQueue: need 0 < max_p <= 1"};
    }
    if (tuning_.weight <= 0.0 || tuning_.weight > 1.0) {
        throw std::invalid_argument{"RedQueue: need 0 < weight <= 1"};
    }
}

bool RedQueue::should_drop() {
    // EWMA update on every arrival; an empty queue contributes a zero
    // sample (a simplification of the paper's idle-time decay that keeps
    // the average a pure function of the arrival sequence).
    avg_ = (1.0 - tuning_.weight) * avg_ +
           tuning_.weight * static_cast<double>(items_.size());
    if (items_.size() >= max_packets_) {
        ++forced_drops_;
        return true; // physically full, no choice
    }
    if (avg_ < tuning_.min_th) {
        count_ = -1;
        return false;
    }
    if (avg_ >= tuning_.max_th) {
        count_ = 0;
        ++forced_drops_;
        return true;
    }
    ++count_;
    const double pb = tuning_.max_p * (avg_ - tuning_.min_th) /
                      (tuning_.max_th - tuning_.min_th);
    // Spread drops: count arrivals since the last drop push pa toward 1,
    // making inter-drop gaps near-uniform (paper Section 7).
    const double scaled = static_cast<double>(count_) * pb;
    const double pa = scaled >= 1.0 ? 1.0 : pb / (1.0 - scaled);
    if (unit_(gen_) < pa) {
        count_ = 0;
        ++early_drops_;
        return true;
    }
    return false;
}

bool RedQueue::enqueue(PooledPacket p) {
    // The drop lottery and EWMA run identically traced or not — only
    // the field reads the emission needs are hoisted behind the check.
    if (!trace_active()) {
        const bool accepted = !should_drop();
        if (accepted) {
            bytes_ += p->size_bytes;
            items_.push_back(std::move(p));
            ++stats_.enqueued;
        } else {
            ++stats_.dropped;
            p.reset();
        }
        return accepted;
    }
    const auto seq = static_cast<std::int64_t>(p->seq);
    const double size = p->size_bytes;
    const int src = p->src;
    const bool accepted = !should_drop();
    if (accepted) {
        bytes_ += p->size_bytes;
        items_.push_back(std::move(p));
        ++stats_.enqueued;
    } else {
        ++stats_.dropped;
        p.reset();
    }
    trace_offer(accepted, src, seq, size);
    return accepted;
}

PooledPacket RedQueue::dequeue() {
    if (items_.empty()) {
        return {};
    }
    PooledPacket p = items_.pop_front();
    bytes_ -= p->size_bytes;
    ++stats_.dequeued;
    return p;
}

void RedQueue::collect_metrics(obs::MetricsRegistry& reg,
                               const std::string& prefix) const {
    QueueElement::collect_metrics(reg, prefix);
    reg.add(prefix + "." + name() + ".early_drops", early_drops_);
    reg.add(prefix + "." + name() + ".forced_drops", forced_drops_);
    reg.set_gauge(prefix + "." + name() + ".avg", avg_);
}

} // namespace routesync::net::elements
