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
// Fast-path drain (PR 10): when serialization time is zero, the virtual
// path's transmission-done cascade pops one engine event per backlogged
// packet — pull, schedule delivery, schedule the next done, all at the
// same instant. When the link is in a fast-dispatch graph AND the
// engine has no other event pending at the current time, that cascade
// is provably the next |backlog| pops in a row, so DelayLink runs it
// inline: it pulls the whole backlog into a PacketBatch and schedules
// ONE delivery event at now + prop_delay. Equivalence argument:
//   * nothing else can run between the cascade's done events (no other
//     event is pending at `now`, the cascade schedules only deliveries
//     at now + prop_delay > now, and nothing else executes that could
//     schedule more) — so pulls see the same queue state;
//   * the coalesced delivery event emits the same per-packet trace
//     events and downstream pushes in the same order the individual
//     delivery events would have (their sequence numbers were
//     consecutive, so no foreign event could have interleaved);
//   * counters (transmissions, queue stats) advance identically.
// When prop_delay is zero the guard fails by construction (the first
// delivery is itself pending at `now`), falling back to the exact
// virtual cascade. Only the engine's event COUNT differs — fewer,
// larger events — so events_processed() and rs.engine.* occupancy
// gauges reflect the fast path, while packet order, RNG draws, elem.*
// metrics, and trace streams stay bit-identical.
#pragma once

#include <cstdint>
#include <memory>
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
    void drain_backlog_batch(PooledPacket first);
    void deliver_batch(PacketBatch* batch);
    void deliver_head();
    void trace_drop(const Packet& p) const;

    [[nodiscard]] PacketBatch* acquire_batch();
    void release_batch(PacketBatch* batch) noexcept;

    double rate_bps_;
    sim::SimTime prop_delay_;
    bool transmitting_ = false;
    bool up_ = true;
    std::uint64_t down_drops_ = 0;
    std::uint64_t transmissions_ = 0;
    /// Reusable batch buffers for in-flight coalesced deliveries (a
    /// {this, batch*} capture stays inside SmallCallback's buffer).
    std::vector<std::unique_ptr<PacketBatch>> batch_pool_;
    std::vector<PacketBatch*> free_batches_;
    /// Fast-mode in-flight packets, delivered front-first (see
    /// start_transmission).
    PacketRing<> in_flight_;
};

} // namespace routesync::net::elements
