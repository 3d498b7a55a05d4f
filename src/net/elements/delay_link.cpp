#include "net/elements/delay_link.hpp"

#include <stdexcept>
#include <utility>

#include "obs/tracer.hpp"

namespace routesync::net::elements {

DelayLink::DelayLink(sim::Engine& engine, std::string name, double rate_bps,
                     sim::SimTime prop_delay)
    : Element{engine, std::move(name)},
      rate_bps_{rate_bps},
      prop_delay_{prop_delay} {
    if (prop_delay_ < sim::SimTime::zero()) {
        throw std::invalid_argument{"DelayLink: negative propagation delay"};
    }
}

sim::SimTime DelayLink::serialization_time(std::uint32_t bytes) const noexcept {
    if (rate_bps_ <= 0.0) {
        return sim::SimTime::zero();
    }
    return sim::SimTime::seconds(static_cast<double>(bytes) * 8.0 / rate_bps_);
}

void DelayLink::trace_drop(const Packet& p) const {
    if (obs::Tracer* tr = engine().tracer()) {
        tr->emit(obs::TraceEventType::PacketDrop, engine().now(), p.src,
                 static_cast<std::int64_t>(p.seq), p.size_bytes);
    }
}

void DelayLink::push(int port, PooledPacket p) {
    if (port != 0) {
        bad_port("push into", port);
    }
    if (!up_) {
        ++down_drops_;
        trace_drop(*p);
        return;
    }
    if (transmitting_) {
        output(1, std::move(p)); // the queue element traces accept-or-drop
        return;
    }
    // Cut-through: an idle transmitter takes the packet directly and the
    // backlog queue is never touched — its stats count only packets that
    // actually waited, same as the pre-element Link.
    if (obs::Tracer* tr = engine().tracer()) {
        tr->emit(obs::TraceEventType::PacketEnqueue, engine().now(), p->src,
                 static_cast<std::int64_t>(p->seq), p->size_bytes);
    }
    start_transmission(std::move(p));
}

void DelayLink::start_transmission(PooledPacket p) {
    transmitting_ = true;
    ++transmissions_;
    const sim::SimTime tx = serialization_time(p->size_bytes);
    // Delivery after serialization + propagation; the transmitter frees up
    // after serialization alone. Delivery is scheduled first so that at
    // equal timestamps (zero propagation) it runs before the
    // transmitter-free event, matching the pre-element Link's FIFO order.
    if (fast_dispatch()) {
        // Fast mode parks the packet in the link's own in-flight FIFO so
        // the delivery capture is {this} — trivially copyable, so the
        // callback's moves through the event queue are plain memcpys.
        // Delivery times are non-decreasing in schedule order (each later
        // packet starts serializing when the previous one ends), so
        // front-of-FIFO is always the right packet.
        in_flight_.push_back(std::move(p));
        engine().schedule_after(tx + prop_delay_, [this] { deliver_head(); });
        engine().schedule_after(tx, [this] { transmission_done(); });
        return;
    }
    engine().schedule_after(
        tx + prop_delay_, [this, pkt = std::move(p)]() mutable {
            if (obs::Tracer* tr = engine().tracer()) {
                tr->emit(obs::TraceEventType::PacketDeliver, engine().now(),
                         pkt->dst, static_cast<std::int64_t>(pkt->seq),
                         pkt->size_bytes);
            }
            output(0, std::move(pkt));
        });
    engine().schedule_after(tx, [this] { transmission_done(); });
}

void DelayLink::deliver_head() {
    PooledPacket pkt = in_flight_.pop_front();
    if (obs::Tracer* tr = engine().tracer()) {
        tr->emit(obs::TraceEventType::PacketDeliver, engine().now(), pkt->dst,
                 static_cast<std::int64_t>(pkt->seq), pkt->size_bytes);
    }
    output(0, std::move(pkt));
}

void DelayLink::transmission_done() {
    transmitting_ = false;
    if (input_connected(1)) {
        if (auto next = input(1)) {
            start_transmission(std::move(next));
        }
    }
}

void DelayLink::collect_metrics(obs::MetricsRegistry& reg,
                                const std::string& prefix) const {
    reg.add(prefix + "." + name() + ".transmissions", transmissions_);
    reg.add(prefix + "." + name() + ".down_drops", down_drops_);
}

} // namespace routesync::net::elements
