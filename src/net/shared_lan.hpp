// A shared broadcast medium with CSMA/CD-style contention.
//
// The Periodic Messages model "ignores properties of physical networks
// such as the possibility of collisions and retransmissions on an
// Ethernet" (paper Section 3). This class supplies exactly those
// properties — 1-persistent carrier sense, collision detection within the
// propagation window, jam + binary exponential backoff, inter-frame gap —
// so the abstraction can be tested instead of assumed
// (bench/ablation_shared_lan).
//
// Simplifications relative to real 802.3: a single collision domain with
// one propagation delay for all station pairs, and no capture effect.
//
// Listener sets: a station names the frame types it hears when it is
// attached (every type by default), and its delivery callback sees only
// those. This states what a receiver consumes, and it is what lets the
// medium skip work nobody observes: a frame that no other station hears
// still contends, occupies the wire and is counted as delivered, but
// costs no fan-out.
//
// The frame cycle in place: a backlogged station's life is contend ->
// transmission end -> contend at channel_free_at_ -> ... . Each of the
// two steps hands the next one back to a small loop (run_steps) instead
// of scheduling it, and in Fast dispatch the loop runs it in place
// whenever sim::Engine::run_inline_at proves it is the engine's next
// event; otherwise it is scheduled as before. The loop is a trampoline,
// so a backlog of k frames never nests k calls deep. send(), which other
// components call from inside their own callbacks, only ever schedules.
// Execution order, RNG draws, trace events and counters are those of the
// queued path (Virtual dispatch keeps every step queued as the
// reference); only the engine's queue pushes fall.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/elements/element_graph.hpp"
#include "net/elements/queue_element.hpp"
#include "net/elements/red_queue.hpp"
#include "net/packet_pool.hpp"
#include "net/packet_ring.hpp"
#include "rng/rng.hpp"
#include "sim/engine.hpp"

namespace routesync::net {

struct SharedLanConfig {
    double rate_bps = 10e6;                        ///< classic Ethernet
    sim::SimTime prop_delay = sim::SimTime::micros(10); ///< collision window
    sim::SimTime slot_time = sim::SimTime::micros(51.2);
    sim::SimTime inter_frame_gap = sim::SimTime::micros(9.6);
    sim::SimTime jam_time = sim::SimTime::micros(4.8);
    int max_backoff_exponent = 10;
    int max_attempts = 16; ///< frame dropped afterwards (excessive collisions)
    std::size_t station_queue_packets = 64;
    /// Per-station queue discipline (the RED-vs-drop-tail knob; station
    /// i's RED lottery is seeded red.seed + i so stations decorrelate).
    elements::QueueDisc queue_disc = elements::QueueDisc::DropTail;
    elements::RedTuning red{};
    std::uint64_t seed = 1;
    /// Fast (default) devirtualizes station-queue calls and fuses the
    /// broadcast fan-out into one delivery event per frame; Virtual keeps
    /// the original checked path as a differential reference. Both are
    /// bit-identical in everything but the engine's event count.
    elements::DispatchMode dispatch = elements::DispatchMode::Fast;
};

struct SharedLanStats {
    std::uint64_t frames_offered = 0;
    std::uint64_t frames_delivered = 0;
    std::uint64_t collisions = 0;
    std::uint64_t drops_excessive_collisions = 0;
    std::uint64_t drops_queue_full = 0;
};

class SharedLan {
public:
    SharedLan(sim::Engine& engine, const SharedLanConfig& config);

    SharedLan(const SharedLan&) = delete;
    SharedLan& operator=(const SharedLan&) = delete;

    /// Attaches a station; `deliver` receives every frame of a type in
    /// `hears` that other stations transmit successfully, and no other
    /// frame. All receivers observe the *same* pooled frame (one slot,
    /// N reads — no per-receiver copies). Returns the station index.
    int attach(std::function<void(const Packet&)> deliver,
               PacketTypeSet hears = PacketTypeSet::all());

    /// Queues a frame for transmission from `station` (broadcast to all
    /// other stations).
    void send(int station, PooledPacket p);
    void send(int station, Packet p) {
        send(station, PacketPool::local().acquire(std::move(p)));
    }

    [[nodiscard]] const SharedLanStats& stats() const noexcept { return stats_; }
    [[nodiscard]] int stations() const noexcept {
        return static_cast<int>(stations_.size());
    }

    /// Frames currently queued at `station` (the level the
    /// ResourceSampler reads; stats() has the cumulative counters).
    [[nodiscard]] std::size_t station_queue_depth(int station) const {
        return stations_.at(static_cast<std::size_t>(station)).queue->size();
    }
    /// Frames queued across all stations.
    [[nodiscard]] std::size_t queued_frames() const noexcept {
        std::size_t total = 0;
        for (const Station& st : stations_) {
            total += st.queue->size();
        }
        return total;
    }
    [[nodiscard]] std::size_t station_queue_capacity() const noexcept {
        return config_.station_queue_packets;
    }

    /// The element graph holding the per-station queues ("st0", "st1",
    /// ...), for metric collection and discipline inspection.
    [[nodiscard]] elements::ElementGraph& graph() noexcept { return graph_; }
    [[nodiscard]] const elements::ElementGraph& graph() const noexcept {
        return graph_;
    }

private:
    struct Station {
        std::function<void(const Packet&)> deliver;
        elements::QueueElement* queue; ///< owned by graph_
        PacketTypeSet hears;  ///< frame types `deliver` receives
        int attempts = 0;   ///< collisions suffered by the head frame
        bool pending = false; ///< head frame is scheduled/contending
    };

    /// The step of a station's frame cycle that a step hands on: the
    /// owner's next contend after a transmission end, or the transmission
    /// end after a seize. Kind::None when the cycle pauses (queue empty,
    /// deferral, collision), having scheduled whatever comes next itself.
    struct Step {
        enum class Kind : std::uint8_t { None, Contend, TransmissionDone };
        Kind kind = Kind::None;
        int station = -1;
        sim::SimTime at;
    };

    /// Station tries to seize the channel now (after carrier sense).
    /// Returns the transmission end when it seized the channel.
    Step contend(int station);
    /// The in-flight transmission completed without collision. Returns
    /// the owner's next contend when its queue holds another frame.
    Step transmission_done();
    /// A second transmitter appeared inside the collision window.
    void collide(int second_station);
    void schedule_backoff(int station);
    /// Runs `next` and the steps it hands on in place for as long as the
    /// engine grants each (Fast dispatch only), then schedules the first
    /// one it does not grant. Every frame-cycle event runs through here.
    void run_steps(Step next);
    void schedule(Step step);
    void schedule_contend(int station, sim::SimTime at);
    /// Fast-mode fused fan-out: delivers the oldest pending broadcast to
    /// every station that hears it, in station order (see
    /// transmission_done).
    void deliver_broadcast();

    // Fast-mode devirtualized station-queue calls: the discipline is
    // uniform across stations (config_.queue_disc), so one predictable
    // branch replaces the vtable dispatch.
    bool q_enqueue(Station& st, PooledPacket p);
    [[nodiscard]] PooledPacket q_dequeue(Station& st);
    [[nodiscard]] const Packet* q_peek(const Station& st) const;
    [[nodiscard]] bool q_empty(const Station& st) const;

    /// One transmitted frame awaiting its fused fan-out event. `count`
    /// freezes the receiver set at transmission time, so a station
    /// attached mid-propagation does not hear it (matching the virtual
    /// path's per-receiver events).
    struct PendingBroadcast {
        int owner = -1;
        std::size_t count = 0;
        PooledPacket frame;
    };

    sim::Engine& engine_;
    SharedLanConfig config_;
    rng::DefaultEngine gen_;
    elements::ElementGraph graph_; ///< owns the station queue elements
    std::deque<Station> stations_; ///< deque: grows without relocating stations
    /// Stations hearing each PacketType, indexed by the type's value.
    std::array<std::size_t, kPacketTypeCount> listeners_{};
    bool fast_;                    ///< config_.dispatch == DispatchMode::Fast
    /// Broadcasts in flight, delivered front-first: the propagation delay
    /// is constant, so fan-out events fire in schedule order.
    PacketRing<PendingBroadcast> broadcasts_;

    // Channel state.
    bool transmitting_ = false;
    int current_owner_ = -1;
    sim::SimTime tx_start_ = sim::SimTime::zero();
    sim::SimTime channel_free_at_ = sim::SimTime::zero();
    /// The queued transmission end, which a collision cancels. A
    /// transmission end run in place needs none: it runs straight after
    /// the seize, so no contender can reach it.
    sim::EventHandle tx_end_event_{};

    SharedLanStats stats_;
};

} // namespace routesync::net
