#include "net/shared_lan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/elements/fifo_queue.hpp"
#include "obs/tracer.hpp"

namespace routesync::net {

SharedLan::SharedLan(sim::Engine& engine, const SharedLanConfig& config)
    : engine_{engine},
      config_{config},
      gen_{config.seed},
      graph_{engine},
      fast_{config.dispatch == elements::DispatchMode::Fast} {
    if (config_.rate_bps <= 0.0) {
        throw std::invalid_argument{"SharedLan: rate must be positive"};
    }
    if (config_.max_attempts < 1 || config_.max_backoff_exponent < 1) {
        throw std::invalid_argument{"SharedLan: bad backoff parameters"};
    }
}

int SharedLan::attach(std::function<void(const Packet&)> deliver,
                      PacketTypeSet hears) {
    if (!deliver) {
        throw std::invalid_argument{"SharedLan: delivery callback required"};
    }
    const int station = static_cast<int>(stations_.size());
    const std::string qname = "st" + std::to_string(station);
    elements::QueueElement* queue = nullptr;
    if (config_.queue_disc == elements::QueueDisc::Red) {
        elements::RedTuning tuning = config_.red;
        tuning.seed += static_cast<std::uint64_t>(station);
        queue = &graph_.add<elements::RedQueue>(
            qname, config_.station_queue_packets, tuning);
    } else {
        queue = &graph_.add<elements::FifoQueue>(qname,
                                                 config_.station_queue_packets);
    }
    // Enqueue/drop trace events carry the station index (this medium's
    // node id space), not the frame's src field.
    queue->set_trace_node(station);
    stations_.push_back(Station{std::move(deliver), queue, hears, 0, false});
    for (std::size_t t = 0; t < kPacketTypeCount; ++t) {
        if (hears.contains(static_cast<PacketType>(t))) {
            ++listeners_[t];
        }
    }
    return station;
}

// Devirtualized queue calls: every station runs the same discipline, so
// the dynamic type is pinned by config_.queue_disc and a qualified call
// on the final class replaces the vtable dispatch (and lets the
// discipline's enqueue inline). Virtual mode keeps the plain virtual
// call as the differential reference.
bool SharedLan::q_enqueue(Station& st, PooledPacket p) {
    if (fast_) {
        if (config_.queue_disc == elements::QueueDisc::Red) {
            return static_cast<elements::RedQueue*>(st.queue)
                ->RedQueue::enqueue(std::move(p));
        }
        return static_cast<elements::FifoQueue*>(st.queue)
            ->FifoQueue::enqueue(std::move(p));
    }
    return st.queue->enqueue(std::move(p));
}

PooledPacket SharedLan::q_dequeue(Station& st) {
    if (fast_) {
        if (config_.queue_disc == elements::QueueDisc::Red) {
            return static_cast<elements::RedQueue*>(st.queue)
                ->RedQueue::dequeue();
        }
        return static_cast<elements::FifoQueue*>(st.queue)
            ->FifoQueue::dequeue();
    }
    return st.queue->dequeue();
}

const Packet* SharedLan::q_peek(const Station& st) const {
    if (fast_) {
        if (config_.queue_disc == elements::QueueDisc::Red) {
            return static_cast<const elements::RedQueue*>(st.queue)
                ->RedQueue::peek();
        }
        return static_cast<const elements::FifoQueue*>(st.queue)
            ->FifoQueue::peek();
    }
    return st.queue->peek();
}

bool SharedLan::q_empty(const Station& st) const {
    if (fast_) {
        if (config_.queue_disc == elements::QueueDisc::Red) {
            return static_cast<const elements::RedQueue*>(st.queue)
                       ->RedQueue::size() == 0;
        }
        return static_cast<const elements::FifoQueue*>(st.queue)
                   ->FifoQueue::size() == 0;
    }
    return st.queue->empty();
}

void SharedLan::send(int station, PooledPacket p) {
    auto& st = stations_.at(static_cast<std::size_t>(station));
    ++stats_.frames_offered;
    if (!q_enqueue(st, std::move(p))) {
        ++stats_.drops_queue_full;
        return;
    }
    if (!st.pending) {
        st.pending = true;
        st.attempts = 0;
        // Never in place: the caller may have more to do at this instant
        // (a burst source queues the rest of its burst after this frame).
        schedule(contend(station));
    }
}

// The frame-cycle trampoline. A grant is asked for only here, after the
// step that handed `next` on has returned, so every push that step made
// is already queued and a granted step runs exactly where its queued
// copy would have.
void SharedLan::run_steps(Step next) {
    while (next.kind != Step::Kind::None) {
        if (!fast_ || !engine_.run_inline_at(next.at)) {
            schedule(next);
            return;
        }
        next = next.kind == Step::Kind::Contend ? contend(next.station)
                                                : transmission_done();
    }
}

void SharedLan::schedule(Step step) {
    if (step.kind == Step::Kind::Contend) {
        schedule_contend(step.station, step.at);
    } else if (step.kind == Step::Kind::TransmissionDone) {
        tx_end_event_ = engine_.schedule_at(
            step.at, [this] { run_steps(transmission_done()); });
    }
}

void SharedLan::schedule_contend(int station, sim::SimTime at) {
    engine_.schedule_at(at, [this, station] { run_steps(contend(station)); });
}

SharedLan::Step SharedLan::contend(int station) {
    auto& st = stations_[static_cast<std::size_t>(station)];
    if (q_empty(st)) {
        st.pending = false;
        return {};
    }
    const sim::SimTime now = engine_.now();

    if (transmitting_) {
        if (now - tx_start_ <= config_.prop_delay) {
            // Inside the collision window: the carrier is not yet visible
            // here, so this station transmits too — collision.
            collide(station);
        } else {
            // Carrier sensed: defer, 1-persistent.
            schedule_contend(station, channel_free_at_);
        }
        return {};
    }
    if (now < channel_free_at_) {
        // Inter-frame gap / jam still on the wire.
        schedule_contend(station, channel_free_at_);
        return {};
    }

    // Channel idle: seize it.
    transmitting_ = true;
    current_owner_ = station;
    tx_start_ = now;
    const sim::SimTime duration = sim::SimTime::seconds(
        static_cast<double>(q_peek(st)->size_bytes) * 8.0 /
        config_.rate_bps);
    channel_free_at_ = now + duration + config_.inter_frame_gap;
    return {Step::Kind::TransmissionDone, station, now + duration};
}

void SharedLan::collide(int second_station) {
    ++stats_.collisions;
    const int first = current_owner_;

    // Abort the in-flight frame; jam the wire.
    engine_.cancel(tx_end_event_);
    transmitting_ = false;
    current_owner_ = -1;
    channel_free_at_ = engine_.now() + config_.jam_time + config_.inter_frame_gap;

    for (const int station : {first, second_station}) {
        auto& st = stations_[static_cast<std::size_t>(station)];
        ++st.attempts;
        if (st.attempts >= config_.max_attempts) {
            ++stats_.drops_excessive_collisions;
            if (obs::Tracer* tr = engine_.tracer()) {
                const Packet* head = q_peek(st);
                tr->emit(obs::TraceEventType::PacketDrop, engine_.now(), station,
                         static_cast<std::int64_t>(head->seq), head->size_bytes);
            }
            q_dequeue(st).reset();
            st.attempts = 0;
            if (q_empty(st)) {
                st.pending = false;
                continue;
            }
        }
        schedule_backoff(station);
    }
}

void SharedLan::schedule_backoff(int station) {
    auto& st = stations_[static_cast<std::size_t>(station)];
    const int exponent = std::min(st.attempts, config_.max_backoff_exponent);
    const std::uint64_t slots =
        rng::uniform_u64(gen_, 0, (std::uint64_t{1} << exponent) - 1);
    const sim::SimTime wait =
        config_.jam_time + config_.slot_time * static_cast<double>(slots);
    schedule_contend(station, engine_.now() + wait);
}

SharedLan::Step SharedLan::transmission_done() {
    const int owner = current_owner_;
    transmitting_ = false;
    current_owner_ = -1;

    auto& st = stations_[static_cast<std::size_t>(owner)];
    PooledPacket frame = q_dequeue(st);
    st.attempts = 0;
    ++stats_.frames_delivered;
    if (obs::Tracer* tr = engine_.tracer()) {
        tr->emit(obs::TraceEventType::PacketDeliver, engine_.now(), owner,
                 static_cast<std::int64_t>(frame->seq), frame->size_bytes);
    }

    // Broadcast: every other station that hears the frame's type gets it
    // after the propagation delay.
    const PacketType type = frame->type;
    if (fast_) {
        // Fused fan-out: ONE event delivers to every receiver in station
        // order. Equivalent to the per-receiver events below: those all
        // carry the same timestamp and consecutive sequence numbers, so
        // nothing can pop between them — the receiver call order is the
        // same either way. The frame parks in broadcasts_ so the capture
        // is {this}, trivially copyable. A frame no other station hears
        // gets no event at all and is released here. Only the engine's
        // event count differs.
        const std::size_t receivers = listeners_[static_cast<std::size_t>(type)] -
                                      (st.hears.contains(type) ? 1U : 0U);
        if (receivers > 0) {
            broadcasts_.push_back(
                PendingBroadcast{owner, stations_.size(), std::move(frame)});
            engine_.schedule_after(config_.prop_delay,
                                   [this] { deliver_broadcast(); });
        }
    } else {
        // All receivers share the transmitted slot — the capture is
        // {this, i, 16-byte handle}, so the fan-out neither copies the
        // frame nor allocates.
        for (std::size_t i = 0; i < stations_.size(); ++i) {
            if (static_cast<int>(i) == owner || !stations_[i].hears.contains(type)) {
                continue;
            }
            engine_.schedule_after(config_.prop_delay,
                                   [this, i, f = frame.share()] {
                                       stations_[i].deliver(*f);
                                   });
        }
    }

    if (q_empty(st)) {
        st.pending = false;
        return {};
    }
    return {Step::Kind::Contend, owner, channel_free_at_};
}

void SharedLan::deliver_broadcast() {
    const PendingBroadcast b = broadcasts_.pop_front();
    const PacketType type = b.frame->type;
    for (std::size_t i = 0; i < b.count; ++i) {
        if (static_cast<int>(i) == b.owner || !stations_[i].hears.contains(type)) {
            continue;
        }
        stations_[i].deliver(*b.frame);
    }
}

} // namespace routesync::net
