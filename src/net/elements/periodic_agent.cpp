#include "net/elements/periodic_agent.hpp"

#include <stdexcept>

#include "net/packet.hpp"
#include "rng/distributions.hpp"

namespace routesync::net::elements {

PeriodicAgent::PeriodicAgent(sim::Engine& engine, std::string name,
                             const PeriodicAgentConfig& config)
    : Element{engine, std::move(name)}, config_{config}, gen_{config.seed} {
    if (config_.jitter < sim::SimTime::zero() ||
        config_.jitter > config_.period) {
        throw std::invalid_argument{"PeriodicAgent: need 0 <= Tr <= Tp"};
    }
    if (config_.process_cost < sim::SimTime::zero()) {
        throw std::invalid_argument{"PeriodicAgent: negative Tc"};
    }
}

void PeriodicAgent::on_timer() {
    Packet update;
    update.type = PacketType::RoutingUpdate;
    update.src = config_.node;
    update.size_bytes = config_.update_bytes;
    ++updates_sent_;
    output(0, PacketPool::local().acquire(std::move(update)));
    if (config_.reset == TimerResetRule::AtExpiry) {
        // Free-running clock: the draw is unaffected by processing load.
        extend_busy();
        rearm();
        return;
    }
    pending_own_ = true;
    extend_busy(); // with pending_own_ set, this schedules the busy check
}

void PeriodicAgent::push(int port, PooledPacket p) {
    if (port != 0) {
        bad_port("push into", port);
    }
    hear(*p);
}

void PeriodicAgent::hear(const Packet& /*p*/) {
    ++updates_heard_;
    extend_busy();
}

void PeriodicAgent::extend_busy() {
    // The serial route processor: work arriving while busy queues behind
    // the current backlog; work arriving while idle starts now.
    const sim::SimTime now = engine().now();
    busy_end_ = busy_end_ > now ? busy_end_ + config_.process_cost
                                : now + config_.process_cost;
    if (pending_own_ && !check_scheduled_) {
        check_scheduled_ = true;
        engine().schedule_at(busy_end_, [this] { busy_check(); });
    }
}

void PeriodicAgent::busy_check() {
    if (busy_end_ > engine().now()) {
        engine().schedule_at(busy_end_, [this] { busy_check(); });
        return;
    }
    check_scheduled_ = false;
    if (pending_own_) {
        pending_own_ = false;
        rearm();
    }
}

void PeriodicAgent::rearm() {
    ++timer_arms_;
    if (on_timer_set) {
        on_timer_set(config_.node, engine().now());
    }
    const double interval =
        rng::uniform_real(gen_, (config_.period - config_.jitter).sec(),
                          (config_.period + config_.jitter).sec());
    schedule_timer_after(sim::SimTime::seconds(interval));
}

void PeriodicAgent::collect_metrics(obs::MetricsRegistry& reg,
                                    const std::string& prefix) const {
    reg.add(prefix + "." + name() + ".updates_sent", updates_sent_);
    reg.add(prefix + "." + name() + ".updates_heard", updates_heard_);
    reg.add(prefix + "." + name() + ".timer_arms", timer_arms_);
}

} // namespace routesync::net::elements
