#include "core/pm_kernel.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/cluster_tracker.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"

namespace routesync::core {

namespace {

constexpr std::size_t kBuckets = 1024; // power of two

/// Lane::pending_state layout: bit 31 = a kPmBusyCheck event is queued
/// for the node; bits 0..30 = own transmissions awaiting the busy-period
/// re-arm.
constexpr std::uint32_t kBusyCheckQueued = 0x80000000U;

/// Sizing estimate for the calendar horizon: the farthest ahead of `now`
/// the model ever schedules is one timer interval (plus jitter) or a
/// busy-period end, which grows by ~n*Tc per overlapping transmission.
/// 2x headroom keeps HalfPeriodJitter's 1.5*Tp draws in-window; anything
/// beyond (deep trigger cascades) takes the overflow path, which is
/// correct, just not O(1).
double horizon_hint(const ModelParams& p, const TimerPolicy& policy) {
    double mean = policy.mean_interval().sec();
    if (!p.per_node_tp.empty()) {
        mean = *std::max_element(p.per_node_tp.begin(), p.per_node_tp.end());
    }
    double tc = p.tc.sec();
    if (!p.per_node_tc.empty()) {
        tc = std::max(tc, *std::max_element(p.per_node_tc.begin(),
                                            p.per_node_tc.end()));
    }
    const double h =
        2.0 * (mean + p.tr.sec() + (static_cast<double>(p.n) + 1.0) * tc);
    return h > 1e-9 ? h : 1e-9;
}

/// PeriodicMessagesModel's parameter checks, with its exact messages —
/// callers switching backends must not see a different contract.
void validate(const ModelParams& p) {
    if (p.n < 1) {
        throw std::invalid_argument{"PeriodicMessagesModel: need at least one node"};
    }
    if (p.tc < sim::SimTime::zero()) {
        throw std::invalid_argument{"PeriodicMessagesModel: Tc must be >= 0"};
    }
    const auto n = static_cast<std::size_t>(p.n);
    if (!p.initial_phases.empty() && p.initial_phases.size() != n) {
        throw std::invalid_argument{
            "PeriodicMessagesModel: initial_phases size must equal n"};
    }
    if (!p.per_node_tp.empty() && p.per_node_tp.size() != n) {
        throw std::invalid_argument{
            "PeriodicMessagesModel: per_node_tp size must equal n"};
    }
    if (!p.per_node_tc.empty() && p.per_node_tc.size() != n) {
        throw std::invalid_argument{
            "PeriodicMessagesModel: per_node_tc size must equal n"};
    }
}

/// Runs `step` under the profiler scope `label` (a string literal) when
/// the kernel found a profiler installed at run start. An unprofiled run
/// skips the scope's thread-local lookup on the per-event path.
template <typename Step>
void profiled_step(bool profiled, const char* label, Step&& step) {
    if (profiled) {
        const obs::ScopedProfile scope{label};
        step();
    } else {
        step();
    }
}

} // namespace

// ---------------------------------------------------------------------------
// PmCalendarQueue (cold paths; the push/peek/pop trio is inline in the
// header)

PmCalendarQueue::PmCalendarQueue(double horizon_hint)
    : width_((horizon_hint > 1e-9 ? horizon_hint : 1e-9) /
             static_cast<double>(kBuckets)),
      inv_width_(1.0 / width_),
      bucket_count_(kBuckets),
      bucket_mask_(kBuckets - 1),
      buckets_(kBuckets),
      occupied_(kBuckets / 64, 0) {}

void PmCalendarQueue::flush_overflow() {
    const std::int64_t window_end = day_ + static_cast<std::int64_t>(bucket_count_);
    std::size_t keep = 0;
    std::int64_t new_min = std::numeric_limits<std::int64_t>::max();
    for (const Entry& e : overflow_) {
        const std::int64_t d = day_of(e.event.time);
        if (d < window_end) {
            const std::size_t b = static_cast<std::size_t>(d) & bucket_mask_;
            if (cursor_sorted_ && b == cursor_b_) {
                // Folding into the already-sorted cursor day (only
                // possible when the cursor jumped straight to the
                // overflow's min day): spill, like any post-sort push.
                spill_.push_back(e);
                std::push_heap(spill_.begin(), spill_.end(), after);
            } else {
                buckets_[b].push_back(e);
                occupied_[b >> 6] |= std::uint64_t{1} << (b & 63U);
            }
        } else {
            new_min = std::min(new_min, d);
            overflow_[keep++] = e;
        }
    }
    overflow_.resize(keep);
    overflow_min_day_ = new_min;
}

void PmCalendarQueue::advance_to_next_bucket() {
    assert(spill_.empty() && "spill events belong to the current day");
    // Circular bitmap scan for the next occupied bucket strictly after the
    // current day's. Within the window each bucket holds events of exactly
    // one day, and day -> bucket is an order-preserving circular map, so
    // the first hit is the minimum day.
    const std::size_t b = cursor_b_;
    std::size_t pos = (b + 1) & bucket_mask_;
    std::size_t remaining = bucket_mask_; // every bucket except b itself
    while (remaining > 0) {
        const std::size_t off = pos & 63U;
        const std::uint64_t word = occupied_[pos >> 6] >> off;
        const std::size_t span = std::min<std::size_t>(64 - off, remaining);
        if (word != 0) {
            const auto tz = static_cast<std::size_t>(std::countr_zero(word));
            if (tz < span) {
                const std::size_t hit = pos + tz; // within the word, no wrap
                day_ += static_cast<std::int64_t>((hit - b) & bucket_mask_);
                cursor_b_ = static_cast<std::size_t>(day_) & bucket_mask_;
                cursor_sorted_ = false;
                cursor_pos_ = 0;
                return;
            }
        }
        pos = (pos + span) & bucket_mask_;
        remaining -= span;
    }
    // Every bucket is empty; only overflow remains (caller guarantees
    // live_ > 0). Jump straight to the earliest overflow day and fold it
    // in — peek_min's outer loop rescans.
    assert(!overflow_.empty());
    day_ = overflow_min_day_;
    cursor_b_ = static_cast<std::size_t>(day_) & bucket_mask_;
    cursor_sorted_ = false;
    cursor_pos_ = 0;
    flush_overflow();
}

std::size_t PmCalendarQueue::memory_bytes() const noexcept {
    std::size_t bytes = buckets_.capacity() * sizeof(std::vector<Entry>) +
                        occupied_.capacity() * sizeof(std::uint64_t) +
                        overflow_.capacity() * sizeof(Entry) +
                        spill_.capacity() * sizeof(Entry);
    for (const std::vector<Entry>& b : buckets_) {
        bytes += b.capacity() * sizeof(Entry);
    }
    return bytes;
}

// ---------------------------------------------------------------------------
// PmKernel: construction and introspection

PmKernel::PmKernel(std::vector<PmLaneSpec> specs) {
    lanes_.reserve(specs.size());
    std::size_t nodes = 0;
    std::size_t pending_nodes = 0;
    std::size_t busy_nodes = 0;
    for (PmLaneSpec& spec : specs) {
        validate(spec.params);
        Lane lane;
        lane.params = std::move(spec.params);
        lane.policy = spec.policy
                          ? std::move(spec.policy)
                          : std::make_unique<UniformJitter>(lane.params.tp,
                                                            lane.params.tr);
        lane.tracer = spec.tracer;
        lane.id = lanes_.size();
        lane.reset_at_expiry = lane.params.reset_at_expiry;
        lane.immediate = lane.params.notification == Notification::Immediate;
        lane.shared_busy = lane.immediate && lane.params.per_node_tc.empty();
        if (lane.params.per_node_tp.empty()) {
            if (const auto* uj =
                    dynamic_cast<const UniformJitter*>(lane.policy.get())) {
                lane.draw_lo = (uj->tp() - uj->tr()).sec();
                lane.draw_span = (uj->tp() + uj->tr()).sec() - lane.draw_lo;
                lane.fast_draw = true;
            }
        }
        if (lane.params.n >= kPmCalendarMinNodes) {
            lane.calendar = std::make_unique<PmCalendarQueue>(
                horizon_hint(lane.params, *lane.policy));
        }
        const auto n = static_cast<std::size_t>(lane.params.n);
        nodes += n;
        pending_nodes += lane.reset_at_expiry ? 0 : n;
        busy_nodes += lane.shared_busy ? 0 : n;
        lanes_.push_back(std::move(lane));
    }

    // One exact-size allocation per array (nothing grows later), then
    // each lane takes its slices in lane order.
    next_expiry_.assign(nodes, sim::SimTime::infinity());
    transmissions_.assign(nodes, 0);
    timer_gen_.assign(nodes, 0);
    pending_state_.assign(pending_nodes, 0);
    busy_end_.assign(busy_nodes, -sim::SimTime::seconds(1.0));
    std::size_t base = 0;
    std::size_t pending_base = 0;
    std::size_t busy_base = 0;
    for (Lane& lane : lanes_) {
        const auto n = static_cast<std::size_t>(lane.params.n);
        lane.next_expiry = next_expiry_.data() + base;
        lane.transmissions = transmissions_.data() + base;
        lane.timer_gen = timer_gen_.data() + base;
        base += n;
        if (!lane.reset_at_expiry) {
            lane.pending_state = pending_state_.data() + pending_base;
            pending_base += n;
        }
        if (!lane.shared_busy) {
            lane.busy_end = busy_end_.data() + busy_base;
            busy_base += n;
        }
    }

    // Seed and schedule lane by lane, nodes in order — each lane's RNG
    // consumption replays an engine construction of the same params.
    for (Lane& lane : lanes_) {
        lane.gen = rng::DefaultEngine{lane.params.seed};
        for (int i = 0; i < lane.params.n; ++i) {
            sim::SimTime first;
            if (!lane.params.initial_phases.empty()) {
                first = sim::SimTime::seconds(
                    lane.params.initial_phases[static_cast<std::size_t>(i)]);
            } else if (lane.params.start == StartCondition::Synchronized) {
                first = sim::SimTime::zero();
            } else {
                first = sim::SimTime::seconds(
                    rng::uniform_real(lane.gen, 0.0, lane.params.tp.sec()));
            }
            schedule_timer(lane, i, lane.now + first);
        }
    }
}

sim::SimTime PmKernel::round_length(std::size_t lane) const noexcept {
    const Lane& l = lanes_[lane];
    return l.policy->mean_interval() + l.params.tc;
}

NodeView PmKernel::node(std::size_t lane, int i) const {
    const Lane& l = lanes_[lane];
    if (i < 0 || i >= l.params.n) {
        throw std::out_of_range{"PmKernel::node: index out of range"};
    }
    const auto idx = static_cast<std::size_t>(i);
    const sim::SimTime be = busy_end(l, i);
    return NodeView{
        .next_expiry = (l.timer_gen[idx] & 1U) != 0 ? l.next_expiry[idx]
                                                    : sim::SimTime::infinity(),
        .busy_until = be,
        .busy = be > l.now,
        .transmissions = l.transmissions[idx],
    };
}

std::size_t PmKernel::node_state_bytes(std::size_t lane) const noexcept {
    const Lane& l = lanes_[lane];
    std::size_t per_node = sizeof(sim::SimTime) + sizeof(std::uint64_t) +
                           sizeof(std::uint32_t);
    if (l.pending_state != nullptr) {
        per_node += sizeof(std::uint32_t);
    }
    if (l.busy_end != nullptr) {
        per_node += sizeof(sim::SimTime);
    }
    return static_cast<std::size_t>(l.params.n) * per_node;
}

std::size_t PmKernel::state_bytes(std::size_t lane) const noexcept {
    const Lane& l = lanes_[lane];
    return node_state_bytes(lane) +
           (l.calendar ? l.calendar->memory_bytes() : l.run.memory_bytes());
}

std::size_t PmKernel::queue_size(std::size_t lane) const noexcept {
    const Lane& l = lanes_[lane];
    return l.calendar ? l.calendar->size() : l.run.size();
}

// ---------------------------------------------------------------------------
// Scheduling from outside the run loop

void PmKernel::schedule_trigger_all(std::size_t lane, sim::SimTime t) {
    Lane& l = lanes_[lane];
    if (t < l.now) {
        throw std::logic_error{"Engine::schedule_at: time is in the past"};
    }
    push_event(l, t, kPmTrigger, 0);
}

void PmKernel::schedule_hook(std::size_t lane, sim::SimTime t,
                             std::function<void()> fn) {
    Lane& l = lanes_[lane];
    if (t < l.now) {
        throw std::logic_error{"Engine::schedule_at: time is in the past"};
    }
    std::uint32_t slot;
    if (!l.free_hooks.empty()) {
        slot = l.free_hooks.back();
        l.free_hooks.pop_back();
        l.hooks[slot] = std::move(fn);
    } else {
        slot = static_cast<std::uint32_t>(l.hooks.size());
        l.hooks.push_back(std::move(fn));
    }
    push_event(l, t, kPmHook, slot);
}

// ---------------------------------------------------------------------------
// Model steps

void PmKernel::push_event(Lane& lane, sim::SimTime at, std::uint32_t kind,
                          std::uint32_t node) {
    if (lane.calendar) {
        lane.calendar->push(at.sec(), lane.next_seq++, kind, node);
    } else {
        lane.run.push(at.sec(), lane.next_seq++, kind, node);
    }
}

sim::SimTime PmKernel::draw_interval(Lane& lane, int i) {
    if (!lane.params.per_node_tp.empty()) {
        const double tp_i = lane.params.per_node_tp[static_cast<std::size_t>(i)];
        return sim::SimTime::seconds(rng::uniform_real(
            lane.gen, tp_i - lane.params.tr.sec(), tp_i + lane.params.tr.sec()));
    }
    if (lane.fast_draw) {
        // lo + span*u01 with span = hi - lo hoisted: bit-identical to
        // rng::uniform_real(gen, lo, hi), which UniformJitter calls.
        return sim::SimTime::seconds(lane.draw_lo +
                                     lane.draw_span * rng::uniform01(lane.gen));
    }
    return lane.policy->next_interval(lane.gen);
}

void PmKernel::schedule_timer(Lane& lane, int i, sim::SimTime at) {
    const auto idx = static_cast<std::size_t>(i);
    assert((lane.timer_gen[idx] & 1U) == 0 && "node already has a pending timer");
    const std::uint32_t gen = ++lane.timer_gen[idx]; // odd = pending
    push_event(lane, at, ((gen & kPmGenMask) << kPmKindBits) | kPmTimer,
               static_cast<std::uint32_t>(i));
    lane.next_expiry[idx] = at;
    if (lane.tracer != nullptr) {
        lane.tracer->emit(obs::TraceEventType::TimerSet, lane.now, i, 0,
                          (at - lane.now).sec());
    }
}

void PmKernel::timer_set(Lane& lane, int i) {
    schedule_timer(lane, i, lane.now + draw_interval(lane, i));
    if (lane.tracker != nullptr) {
        lane.tracker->on_timer_set(i, lane.now);
    } else if (on_timer_set) {
        on_timer_set(lane.id, i, lane.now);
    }
}

void PmKernel::trigger_node(Lane& lane, int i) {
    const auto idx = static_cast<std::size_t>(i);
    if (!lane.reset_at_expiry && (lane.timer_gen[idx] & 1U) != 0) {
        // Cancel: bumping the generation (odd -> even) makes the queued
        // event stale; the run loop discards it on surfacing, exactly like
        // an EventQueue tombstone (never executed, never counted).
        ++lane.timer_gen[idx];
        lane.can_cancel = true;
        if (lane.tracer != nullptr) {
            lane.tracer->emit(obs::TraceEventType::TimerReset, lane.now, i);
        }
    }
    profiled_step(profiled_, "pm.begin_transmission",
                  [&] { begin_transmission(lane, i); });
}

void PmKernel::extend_busy(Lane& lane, int i, sim::SimTime t) {
    if (lane.shared_busy) {
        if (lane.shared_busy_end > t) {
            lane.shared_busy_end += lane.params.tc;
        } else {
            lane.shared_busy_end = t + lane.params.tc;
        }
        return;
    }
    const auto idx = static_cast<std::size_t>(i);
    const sim::SimTime tc = lane.params.per_node_tc.empty()
                                ? lane.params.tc
                                : sim::SimTime::seconds(lane.params.per_node_tc[idx]);
    if (lane.busy_end[idx] > t) {
        lane.busy_end[idx] += tc;
    } else {
        lane.busy_end[idx] = t + tc;
    }
}

void PmKernel::timer_expired(Lane& lane, int i) {
    ++lane.timer_gen[static_cast<std::size_t>(i)]; // odd -> even: none pending
    if (lane.tracer != nullptr) {
        lane.tracer->emit(obs::TraceEventType::TimerFire, lane.now, i);
    }
    if (lane.reset_at_expiry) {
        timer_set(lane, i);
    }
    profiled_step(profiled_, "pm.begin_transmission",
                  [&] { begin_transmission(lane, i); });
}

void PmKernel::begin_transmission(Lane& lane, int i) {
    const sim::SimTime now = lane.now;
    const auto idx = static_cast<std::size_t>(i);

    ++lane.transmissions[idx];
    ++lane.tx_count;
    if (on_transmit) {
        on_transmit(lane.id, i, now);
    }
    if (lane.tracer != nullptr) {
        lane.tracer->emit(obs::TraceEventType::UpdateTx, now, i,
                          static_cast<std::int64_t>(lane.transmissions[idx]));
    }

    if (!lane.reset_at_expiry) {
        ++lane.pending_state[idx]; // own-transmission count (low bits)
    }
    extend_busy(lane, i, now);
    if (!lane.reset_at_expiry &&
        (lane.pending_state[idx] & kBusyCheckQueued) == 0) {
        lane.pending_state[idx] |= kBusyCheckQueued;
        push_event(lane, busy_end(lane, i), kPmBusyCheck,
                   static_cast<std::uint32_t>(i));
    }

    if (lane.immediate) {
        // Shared-busy mode: the broadcast is already done. In the engine
        // model every node applies the same extend rule to its own copy
        // of the same prior value at the same instant, so all n copies
        // land on one new value — which the sender's extend_busy above
        // just computed on the shared scalar. O(1) per transmission
        // instead of O(n), bit-identical by induction on "all copies
        // equal".
        if (!lane.shared_busy) {
            for (int j = 0; j < lane.params.n; ++j) {
                if (j != i) {
                    extend_busy(lane, j, now);
                }
            }
        }
    } else {
        push_event(lane, now + lane.params.tc, kPmDeliver,
                   static_cast<std::uint32_t>(i));
    }
}

void PmKernel::deliver_from(Lane& lane, int i) {
    for (int j = 0; j < lane.params.n; ++j) {
        if (j != i) {
            extend_busy(lane, j, lane.now);
        }
    }
}

void PmKernel::busy_check(Lane& lane, int i) {
    const sim::SimTime be = busy_end(lane, i);
    if (be > lane.now) {
        // Extended after this check was scheduled; re-arm at the new end
        // (lazy revalidation, queued flag stays set).
        push_event(lane, be, kPmBusyCheck, static_cast<std::uint32_t>(i));
        return;
    }
    std::uint32_t& ps = lane.pending_state[static_cast<std::size_t>(i)];
    ps &= ~kBusyCheckQueued;
    if (ps != 0) { // own transmissions occurred: re-arm
        ps = 0;
        timer_set(lane, i);
    }
}

void PmKernel::dispatch(Lane& lane, const PmEvent& e) {
    const auto i = static_cast<int>(e.node);
    switch (e.kind & kPmKindMask) {
    case kPmTimer:
        profiled_step(profiled_, "pm.timer_fire", [&] { timer_expired(lane, i); });
        break;
    case kPmBusyCheck:
        busy_check(lane, i);
        break;
    case kPmDeliver:
        deliver_from(lane, i);
        break;
    case kPmTrigger:
        for (int j = 0; j < lane.params.n; ++j) {
            trigger_node(lane, j);
        }
        break;
    case kPmHook: {
        auto fn = std::move(lane.hooks[e.node]);
        lane.free_hooks.push_back(e.node);
        fn();
        break;
    }
    default:
        assert(false && "unknown PmEvent kind");
    }
}

// ---------------------------------------------------------------------------
// Run loop

template <typename Queue>
bool PmKernel::advance(Lane& lane, Queue& queue, double bound_sec,
                       sim::SimTime target) {
    const double target_sec = target.sec();
    const double stop_at = bound_sec < target_sec ? bound_sec : target_sec;
    while (!lane.stopped) {
        // Discard stale (cancelled) timers before the boundary check —
        // EventQueue::next_time() does the same tombstone skip, so the
        // engine's loop condition only ever sees live events. A timer is
        // live iff the generation packed into its kind field still
        // matches the node's current (odd = pending) generation; until a
        // trigger has cancelled one, every queued timer is live.
        const PmEvent* head = nullptr;
        while (!queue.empty()) {
            const PmEvent& e = queue.peek_min();
            if (lane.can_cancel && (e.kind & kPmKindMask) == kPmTimer &&
                (e.kind >> kPmKindBits) !=
                    (lane.timer_gen[e.node] & kPmGenMask)) {
                queue.pop_min();
                continue;
            }
            head = &e;
            break;
        }
        // One boundary compare on the hot path: stop_at <= target, so the
        // drain test only runs once an event crosses the epoch bound.
        if (head == nullptr || head->time > stop_at) {
            if (head != nullptr && head->time <= target_sec) {
                return true; // still live; resume next epoch
            }
            if (lane.now < target) {
                lane.now = target;
            }
            return false; // drained (or nothing left before the target)
        }
        const PmEvent e = *head;
        queue.pop_min();
        lane.now = sim::SimTime::seconds(e.time);
        ++lane.processed;
        dispatch(lane, e);
    }
    return false; // stopped: clock stays at the last event
}

void PmKernel::run_all_until(std::span<const sim::SimTime> targets) {
    assert(targets.size() == lanes_.size() && "one target time per lane required");
    profiled_ = obs::Profiler::current() != nullptr;

    // Epoch: a few round lengths — long enough to amortize the rotation,
    // short enough that every lane's working set stays warm. A lone lane
    // needs no rotation and runs straight to its target.
    double epoch = 0.0;
    double start = std::numeric_limits<double>::infinity();
    std::vector<std::size_t> live;
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
        if (!lanes_[l].stopped) {
            epoch = std::max(epoch, round_length(l).sec());
            start = std::min(start, lanes_[l].now.sec());
            live.push_back(l);
        }
    }
    epoch = lanes_.size() == 1 ? std::numeric_limits<double>::infinity()
            : epoch > 1e-9     ? 8.0 * epoch
                               : 1.0;

    for (double bound = start + epoch; !live.empty(); bound += epoch) {
        std::erase_if(live, [&](std::size_t l) {
            Lane& lane = lanes_[l];
            const bool more =
                lane.calendar ? advance(lane, *lane.calendar, bound, targets[l])
                              : advance(lane, lane.run, bound, targets[l]);
            return !more;
        });
    }
}

} // namespace routesync::core
