// DelayLink: the transmitter half of a point-to-point link as an
// element — serialization at a fixed bit rate plus fixed propagation
// delay. The backlog lives in whatever queue element is wired to its
// ports, which is how Link composes drop-tail today and RED tomorrow:
//
//           [1] overflow (push) ──► queue "in"
//   xmit ──►[0]                     queue "out" ──► [1] backlog (pull)
//           [0] out (push) ──► receiver
//
// An idle transmitter serializes an arriving packet immediately
// (cut-through: the queue is never touched, preserving the pre-element
// Link's accounting exactly); a busy one pushes the packet out the
// `overflow` port, and on each transmission-done it pulls `backlog` for
// the next packet. Event scheduling order (delivery before
// transmitter-free) and every trace emission match net/link.cpp at
// HEAD byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/elements/element.hpp"
#include "net/packet_ring.hpp"
#include "sim/time.hpp"

namespace routesync::net::elements {

class DelayLink final : public Element {
public:
    /// `rate_bps` <= 0 means infinite rate (zero serialization time).
    DelayLink(sim::Engine& engine, std::string name, double rate_bps,
              sim::SimTime prop_delay);

    [[nodiscard]] const char* kind() const noexcept override {
        return "DelayLink";
    }
    [[nodiscard]] std::vector<PortSpec> input_ports() const override {
        return {{PortKind::Push, "xmit"}, {PortKind::Pull, "backlog"}};
    }
    [[nodiscard]] std::vector<PortSpec> output_ports() const override {
        return {{PortKind::Push, "out"}, {PortKind::Push, "overflow"}};
    }

    void push(int port, PooledPacket p) override;

    [[nodiscard]] FastOps fast_ops() noexcept override {
        return fast_ops_for<DelayLink>();
    }

    /// Carrier state: a downed link silently discards everything offered
    /// to it (in-flight packets still arrive — they are already on the
    /// wire).
    void set_up(bool up) noexcept { up_ = up; }
    [[nodiscard]] bool is_up() const noexcept { return up_; }
    [[nodiscard]] std::uint64_t down_drops() const noexcept {
        return down_drops_;
    }
    [[nodiscard]] bool transmitting() const noexcept { return transmitting_; }
    [[nodiscard]] std::uint64_t transmissions() const noexcept {
        return transmissions_;
    }

    [[nodiscard]] sim::SimTime
    serialization_time(std::uint32_t bytes) const noexcept;

    void collect_metrics(obs::MetricsRegistry& reg,
                         const std::string& prefix) const override;

private:
    void start_transmission(PooledPacket p);
    void transmission_done();
    void deliver_head();
    void trace_drop(const Packet& p) const;

    double rate_bps_;
    sim::SimTime prop_delay_;
    bool transmitting_ = false;
    bool up_ = true;
    std::uint64_t down_drops_ = 0;
    std::uint64_t transmissions_ = 0;
    /// Fast-mode in-flight packets, delivered front-first (see
    /// start_transmission).
    PacketRing<> in_flight_;
};

} // namespace routesync::net::elements
