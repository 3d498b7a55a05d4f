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

/// PmKernel::pending_state_ layout: bit 31 = a kPmBusyCheck event is queued
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
/// Returns `p`, so the kernel validates in its member initializer.
ModelParams validated(ModelParams p) {
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
    return p;
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

PmKernel::PmKernel(ModelParams params, std::unique_ptr<TimerPolicy> policy,
                   obs::Tracer* tracer)
    : params_{validated(std::move(params))},
      policy_{policy ? std::move(policy)
                     : std::make_unique<UniformJitter>(params_.tp, params_.tr)},
      tracer_{tracer},
      gen_{params_.seed},
      reset_at_expiry_{params_.reset_at_expiry},
      immediate_{params_.notification == Notification::Immediate} {
    shared_busy_ = immediate_ && params_.per_node_tc.empty();
    if (params_.per_node_tp.empty()) {
        if (const auto* uj = dynamic_cast<const UniformJitter*>(policy_.get())) {
            draw_lo_ = (uj->tp() - uj->tr()).sec();
            draw_span_ = (uj->tp() + uj->tr()).sec() - draw_lo_;
            fast_draw_ = true;
        }
    }
    if (params_.n >= kPmCalendarMinNodes) {
        calendar_ = std::make_unique<PmCalendarQueue>(horizon_hint(params_, *policy_));
    }
    const auto n = static_cast<std::size_t>(params_.n);
    next_expiry_.assign(n, sim::SimTime::infinity());
    transmissions_.assign(n, 0);
    timer_gen_.assign(n, 0);
    if (!reset_at_expiry_) {
        pending_state_.assign(n, 0);
    }
    if (!shared_busy_) {
        busy_end_.assign(n, -sim::SimTime::seconds(1.0));
    }

    // Nodes in order — the RNG consumption replays an engine construction
    // of the same params.
    for (int i = 0; i < params_.n; ++i) {
        sim::SimTime first;
        if (!params_.initial_phases.empty()) {
            first = sim::SimTime::seconds(
                params_.initial_phases[static_cast<std::size_t>(i)]);
        } else if (params_.start == StartCondition::Synchronized) {
            first = sim::SimTime::zero();
        } else {
            first = sim::SimTime::seconds(
                rng::uniform_real(gen_, 0.0, params_.tp.sec()));
        }
        schedule_timer(i, now_ + first);
    }
}

sim::SimTime PmKernel::round_length() const noexcept {
    return policy_->mean_interval() + params_.tc;
}

NodeView PmKernel::node(int i) const {
    if (i < 0 || i >= params_.n) {
        throw std::out_of_range{"PmKernel::node: index out of range"};
    }
    const auto idx = static_cast<std::size_t>(i);
    const sim::SimTime be = busy_end(i);
    return NodeView{
        .next_expiry = (timer_gen_[idx] & 1U) != 0 ? next_expiry_[idx]
                                                   : sim::SimTime::infinity(),
        .busy_until = be,
        .busy = be > now_,
        .transmissions = transmissions_[idx],
    };
}

std::size_t PmKernel::node_state_bytes() const noexcept {
    return next_expiry_.size() * sizeof(sim::SimTime) +
           transmissions_.size() * sizeof(std::uint64_t) +
           timer_gen_.size() * sizeof(std::uint32_t) +
           pending_state_.size() * sizeof(std::uint32_t) +
           busy_end_.size() * sizeof(sim::SimTime);
}

std::size_t PmKernel::state_bytes() const noexcept {
    return node_state_bytes() +
           (calendar_ ? calendar_->memory_bytes() : run_.memory_bytes());
}

std::size_t PmKernel::queue_size() const noexcept {
    return calendar_ ? calendar_->size() : run_.size();
}

// ---------------------------------------------------------------------------
// Scheduling from outside the run loop

void PmKernel::schedule_trigger_all(sim::SimTime t) {
    if (t < now_) {
        throw std::logic_error{"Engine::schedule_at: time is in the past"};
    }
    push_event(t, kPmTrigger, 0);
}

void PmKernel::schedule_hook(sim::SimTime t, std::function<void()> fn) {
    if (t < now_) {
        throw std::logic_error{"Engine::schedule_at: time is in the past"};
    }
    std::uint32_t slot;
    if (!free_hooks_.empty()) {
        slot = free_hooks_.back();
        free_hooks_.pop_back();
        hooks_[slot] = std::move(fn);
    } else {
        slot = static_cast<std::uint32_t>(hooks_.size());
        hooks_.push_back(std::move(fn));
    }
    push_event(t, kPmHook, slot);
}

// ---------------------------------------------------------------------------
// Model steps

void PmKernel::push_event(sim::SimTime at, std::uint32_t kind, std::uint32_t node) {
    if (calendar_) {
        calendar_->push(at.sec(), next_seq_++, kind, node);
    } else {
        run_.push(at.sec(), next_seq_++, kind, node);
    }
}

sim::SimTime PmKernel::draw_interval(int i) {
    if (!params_.per_node_tp.empty()) {
        const double tp_i = params_.per_node_tp[static_cast<std::size_t>(i)];
        return sim::SimTime::seconds(rng::uniform_real(
            gen_, tp_i - params_.tr.sec(), tp_i + params_.tr.sec()));
    }
    if (fast_draw_) {
        // lo + span*u01 with span = hi - lo hoisted: bit-identical to
        // rng::uniform_real(gen, lo, hi), which UniformJitter calls.
        return sim::SimTime::seconds(draw_lo_ + draw_span_ * rng::uniform01(gen_));
    }
    return policy_->next_interval(gen_);
}

void PmKernel::schedule_timer(int i, sim::SimTime at) {
    const auto idx = static_cast<std::size_t>(i);
    assert((timer_gen_[idx] & 1U) == 0 && "node already has a pending timer");
    const std::uint32_t gen = ++timer_gen_[idx]; // odd = pending
    push_event(at, ((gen & kPmGenMask) << kPmKindBits) | kPmTimer,
               static_cast<std::uint32_t>(i));
    next_expiry_[idx] = at;
    if (tracer_ != nullptr) {
        tracer_->emit(obs::TraceEventType::TimerSet, now_, i, 0, (at - now_).sec());
    }
}

void PmKernel::timer_set(int i) {
    schedule_timer(i, now_ + draw_interval(i));
    if (tracker_ != nullptr) {
        tracker_->on_timer_set(i, now_);
    } else if (on_timer_set) {
        on_timer_set(i, now_);
    }
}

void PmKernel::trigger_node(int i) {
    const auto idx = static_cast<std::size_t>(i);
    if (!reset_at_expiry_ && (timer_gen_[idx] & 1U) != 0) {
        // Cancel: bumping the generation (odd -> even) makes the queued
        // event stale; the run loop discards it on surfacing, exactly like
        // an EventQueue tombstone (never executed, never counted).
        ++timer_gen_[idx];
        can_cancel_ = true;
        if (tracer_ != nullptr) {
            tracer_->emit(obs::TraceEventType::TimerReset, now_, i);
        }
    }
    profiled_step(profiled_, "pm.begin_transmission", [&] { begin_transmission(i); });
}

void PmKernel::extend_busy(int i, sim::SimTime t) {
    if (shared_busy_) {
        if (shared_busy_end_ > t) {
            shared_busy_end_ += params_.tc;
        } else {
            shared_busy_end_ = t + params_.tc;
        }
        return;
    }
    const auto idx = static_cast<std::size_t>(i);
    const sim::SimTime tc = params_.per_node_tc.empty()
                                ? params_.tc
                                : sim::SimTime::seconds(params_.per_node_tc[idx]);
    if (busy_end_[idx] > t) {
        busy_end_[idx] += tc;
    } else {
        busy_end_[idx] = t + tc;
    }
}

void PmKernel::timer_expired(int i) {
    ++timer_gen_[static_cast<std::size_t>(i)]; // odd -> even: none pending
    if (tracer_ != nullptr) {
        tracer_->emit(obs::TraceEventType::TimerFire, now_, i);
    }
    if (reset_at_expiry_) {
        timer_set(i);
    }
    profiled_step(profiled_, "pm.begin_transmission", [&] { begin_transmission(i); });
}

void PmKernel::begin_transmission(int i) {
    const sim::SimTime now = now_;
    const auto idx = static_cast<std::size_t>(i);

    ++transmissions_[idx];
    ++tx_count_;
    if (on_transmit) {
        on_transmit(i, now);
    }
    if (tracer_ != nullptr) {
        tracer_->emit(obs::TraceEventType::UpdateTx, now, i,
                      static_cast<std::int64_t>(transmissions_[idx]));
    }

    if (!reset_at_expiry_) {
        ++pending_state_[idx]; // own-transmission count (low bits)
    }
    extend_busy(i, now);
    if (!reset_at_expiry_ && (pending_state_[idx] & kBusyCheckQueued) == 0) {
        pending_state_[idx] |= kBusyCheckQueued;
        push_event(busy_end(i), kPmBusyCheck, static_cast<std::uint32_t>(i));
    }

    if (immediate_) {
        // Shared-busy mode: the broadcast is already done. In the engine
        // model every node applies the same extend rule to its own copy
        // of the same prior value at the same instant, so all n copies
        // land on one new value — which the sender's extend_busy above
        // just computed on the shared scalar. O(1) per transmission
        // instead of O(n), bit-identical by induction on "all copies
        // equal".
        if (!shared_busy_) {
            for (int j = 0; j < params_.n; ++j) {
                if (j != i) {
                    extend_busy(j, now);
                }
            }
        }
    } else {
        push_event(now + params_.tc, kPmDeliver, static_cast<std::uint32_t>(i));
    }
}

void PmKernel::deliver_from(int i) {
    for (int j = 0; j < params_.n; ++j) {
        if (j != i) {
            extend_busy(j, now_);
        }
    }
}

void PmKernel::busy_check(int i) {
    const sim::SimTime be = busy_end(i);
    if (be > now_) {
        // Extended after this check was scheduled; re-arm at the new end
        // (lazy revalidation, queued flag stays set).
        push_event(be, kPmBusyCheck, static_cast<std::uint32_t>(i));
        return;
    }
    std::uint32_t& ps = pending_state_[static_cast<std::size_t>(i)];
    ps &= ~kBusyCheckQueued;
    if (ps != 0) { // own transmissions occurred: re-arm
        ps = 0;
        timer_set(i);
    }
}

void PmKernel::dispatch(const PmEvent& e) {
    const auto i = static_cast<int>(e.node);
    switch (e.kind & kPmKindMask) {
    case kPmTimer:
        profiled_step(profiled_, "pm.timer_fire", [&] { timer_expired(i); });
        break;
    case kPmBusyCheck:
        busy_check(i);
        break;
    case kPmDeliver:
        deliver_from(i);
        break;
    case kPmTrigger:
        for (int j = 0; j < params_.n; ++j) {
            trigger_node(j);
        }
        break;
    case kPmHook: {
        auto fn = std::move(hooks_[e.node]);
        free_hooks_.push_back(e.node);
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
void PmKernel::run_loop(Queue& queue, sim::SimTime target) {
    const double target_sec = target.sec();
    while (!stopped_) {
        // Discard stale (cancelled) timers before the boundary check —
        // EventQueue::next_time() does the same tombstone skip, so the
        // engine's loop condition only ever sees live events. A timer is
        // live iff the generation packed into its kind field still
        // matches the node's current (odd = pending) generation; until a
        // trigger has cancelled one, every queued timer is live.
        const PmEvent* head = nullptr;
        while (!queue.empty()) {
            const PmEvent& e = queue.peek_min();
            if (can_cancel_ && (e.kind & kPmKindMask) == kPmTimer &&
                (e.kind >> kPmKindBits) != (timer_gen_[e.node] & kPmGenMask)) {
                queue.pop_min();
                continue;
            }
            head = &e;
            break;
        }
        if (head == nullptr || head->time > target_sec) {
            if (now_ < target) {
                now_ = target;
            }
            return; // drained (or nothing left before the target)
        }
        const PmEvent e = *head;
        queue.pop_min();
        now_ = sim::SimTime::seconds(e.time);
        ++processed_;
        dispatch(e);
    }
    // stopped: the clock stays at the last event
}

void PmKernel::run_until(sim::SimTime target) {
    profiled_ = obs::Profiler::current() != nullptr;
    if (calendar_) {
        run_loop(*calendar_, target);
    } else {
        run_loop(run_, target);
    }
}

} // namespace routesync::core
