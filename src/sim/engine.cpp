#include "sim/engine.hpp"

#include <utility>

namespace routesync::sim {

EventHandle Engine::schedule_at(SimTime t, Callback cb) {
    if (t < now_) {
        throw std::logic_error{"Engine::schedule_at: time is in the past"};
    }
    ++pushes_;
    return queue_.push(t, std::move(cb));
}

EventHandle Engine::schedule_after(SimTime dt, Callback cb) {
    if (dt < SimTime::zero()) {
        throw std::logic_error{"Engine::schedule_after: negative delay"};
    }
    ++pushes_;
    return queue_.push(now_ + dt, std::move(cb));
}

// One queue call per event; each callback is destroyed as soon as it has
// run (this function's scope), not when the next pop replaces it.
bool Engine::run_next(SimTime limit) {
    EventQueue::Popped event = queue_.pop_until(limit);
    if (!event.callback) {
        return false;
    }
    now_ = event.time;
    ++processed_;
    event.callback();
    return true;
}

bool Engine::step() {
    const GrantScope none{*this, -SimTime::infinity()};
    return run_next(SimTime::infinity());
}

void Engine::run() {
    const GrantScope grants{*this, SimTime::infinity()};
    while (!stopped_ && run_next(SimTime::infinity())) {
    }
}

void Engine::run_until(SimTime t) {
    const GrantScope grants{*this, t};
    while (!stopped_ && run_next(t)) {
    }
    if (!stopped_ && now_ < t) {
        now_ = t;
    }
}

} // namespace routesync::sim
