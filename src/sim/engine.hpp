// The discrete-event simulation engine.
//
// A single-threaded event loop: callbacks scheduled at simulation times run
// in timestamp order (FIFO among equals), each seeing `now()` equal to its
// own timestamp. All simulators in this repository (the Periodic Messages
// model and the packet-level network) are built on this engine.
//
// In-place grants: an event that a component is about to schedule is
// often provably the very next one the loop would serve (a CSMA/CD
// station's transmission end right after it seizes an idle channel).
// run_inline_at(t) lets the component run such an event itself instead
// of paying a queue push and pop: the engine advances the clock and
// counts the event exactly as if it had popped it. The grant is strict
// and conservative, so the order of execution never changes:
//
//   * t >= now() — no event runs in the past;
//   * t is strictly earlier than every queued entry (next_time_bound(),
//     tombstones included). A queued event at exactly t was pushed
//     earlier and must run first (FIFO among equals);
//   * t is within the active run: run() grants at any time, run_until(T)
//     only at t <= T (the events the loop itself would pop), and step()
//     or a call outside any run grants nothing — step() runs exactly one
//     event;
//   * no stop() is pending — the loop would return before the next event.
//
// A granted event must run before anything else is pushed or run, so the
// caller grants only from its own event callback, after it has finished
// every other push of that callback (SharedLan's frame-cycle trampoline).
// queue_pushes() counts what still goes through the queue.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace routesync::obs {
class Tracer;
}

namespace routesync::sim {

class Engine {
public:
    using Callback = EventQueue::Callback;

    /// Schedules `cb` at absolute time `t`. Scheduling into the past (before
    /// `now()`) is a logic error and throws.
    EventHandle schedule_at(SimTime t, Callback cb);

    /// Schedules `cb` at now() + dt, dt >= 0.
    EventHandle schedule_after(SimTime dt, Callback cb);

    /// Cancels a pending event; returns false if it already fired.
    bool cancel(EventHandle h) { return queue_.cancel(h); }

    /// Current simulation time.
    [[nodiscard]] SimTime now() const noexcept { return now_; }

    /// Runs a single event. Returns false (and leaves `now()` unchanged)
    /// when the queue is empty. Grants nothing in place (see the file
    /// comment): one call runs exactly one event.
    bool step();

    /// Runs until the queue drains or stop() is called.
    void run();

    /// Runs every event with timestamp <= `t`, then advances `now()` to `t`
    /// (even if the queue still holds later events). Returns early if
    /// stop() is called.
    void run_until(SimTime t);

    /// Grants an event at `t` in place (see the file comment for the
    /// rule): on true, `now()` is `t`, the event is counted in
    /// events_processed(), and the caller runs it immediately; on false
    /// nothing changed and the caller schedules it as usual.
    [[nodiscard]] bool run_inline_at(SimTime t) noexcept {
        if (!stopped_ && now_ <= t && t <= grant_limit_ &&
            (queue_.empty() || t < queue_.next_time_bound())) {
            now_ = t;
            ++processed_;
            return true;
        }
        return false;
    }

    /// Requests the current run()/run_until() to return after the active
    /// callback completes. Callable from inside callbacks.
    void stop() noexcept { stopped_ = true; }

    [[nodiscard]] bool stop_requested() const noexcept { return stopped_; }

    /// Clears a previous stop request so the engine can be driven further.
    void clear_stop() noexcept { stopped_ = false; }

    /// Total callbacks executed so far, events granted in place included.
    [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }

    /// Events scheduled onto the queue so far (schedule_at and
    /// schedule_after calls). An event granted in place is never pushed,
    /// so this falls short of events_processed() by the grants, plus
    /// whatever is still queued or was cancelled.
    [[nodiscard]] std::uint64_t queue_pushes() const noexcept { return pushes_; }

    /// Live (pending, non-cancelled) events.
    [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }

    /// Occupancy of the underlying event queue (live / tombstones / heap).
    [[nodiscard]] EventQueueStats queue_stats() const noexcept {
        return queue_.stats();
    }

    /// Attaches (or detaches, with nullptr) a trace event sink. Components
    /// built on this engine emit typed trace events through it; a null
    /// tracer — the default — makes every emission a single pointer test.
    void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

    [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

private:
    /// Pops and runs the next event if its time is <= `limit`.
    bool run_next(SimTime limit);

    /// Installs a run's grant limit for its duration (restoring the
    /// enclosing one, so a run nested in a callback or left by an
    /// exception leaves no stale limit behind).
    class GrantScope {
    public:
        GrantScope(Engine& engine, SimTime limit) noexcept
            : engine_{engine}, saved_{engine.grant_limit_} {
            engine.grant_limit_ = limit;
        }
        ~GrantScope() { engine_.grant_limit_ = saved_; }
        GrantScope(const GrantScope&) = delete;
        GrantScope& operator=(const GrantScope&) = delete;

    private:
        Engine& engine_;
        SimTime saved_;
    };

    EventQueue queue_;
    obs::Tracer* tracer_ = nullptr;
    SimTime now_ = SimTime::zero();
    /// Latest time run_inline_at may grant: the active run's target, or
    /// -infinity (nothing) outside run() and run_until().
    SimTime grant_limit_ = -SimTime::infinity();
    std::uint64_t processed_ = 0;
    std::uint64_t pushes_ = 0;
    bool stopped_ = false;
};

} // namespace routesync::sim
