#include "sim/engine.hpp"

#include <utility>

namespace routesync::sim {

EventHandle Engine::schedule_at(SimTime t, Callback cb) {
    if (t < now_) {
        throw std::logic_error{"Engine::schedule_at: time is in the past"};
    }
    return queue_.push(t, std::move(cb));
}

EventHandle Engine::schedule_after(SimTime dt, Callback cb) {
    if (dt < SimTime::zero()) {
        throw std::logic_error{"Engine::schedule_after: negative delay"};
    }
    return queue_.push(now_ + dt, std::move(cb));
}

bool Engine::step() {
    EventQueue::Popped event = queue_.pop_until(SimTime::infinity());
    if (!event.callback) {
        return false;
    }
    now_ = event.time;
    ++processed_;
    event.callback();
    return true;
}

void Engine::run() {
    while (!stopped_ && step()) {
    }
}

void Engine::run_until(SimTime t) {
    // One queue call per event; each callback is destroyed as soon as it
    // has run (the loop body's scope), not when the next pop replaces it.
    while (!stopped_) {
        EventQueue::Popped event = queue_.pop_until(t);
        if (!event.callback) {
            break;
        }
        now_ = event.time;
        ++processed_;
        event.callback();
    }
    if (!stopped_ && now_ < t) {
        now_ = t;
    }
}

} // namespace routesync::sim
