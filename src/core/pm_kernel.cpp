#include "core/pm_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/cluster_tracker.hpp"
#include "obs/profiler.hpp"
#include "obs/sync_monitor.hpp"
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

/// The profiler scope `label` (a string literal) when the kernel found a
/// profiler installed at run start, and nothing otherwise: an unprofiled
/// run skips the scope's thread-local lookup on the per-event path.
class ProfiledStep {
public:
    ProfiledStep(bool profiled, const char* label) noexcept {
        if (profiled) {
            scope_.emplace(label);
        }
    }

private:
    std::optional<obs::ScopedProfile> scope_;
};

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
                std::push_heap(spill_.begin(), spill_.end(), After{});
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

std::int64_t PmCalendarQueue::next_occupied_day(std::size_t reach) const noexcept {
    // Scan the bitmap circularly from the bucket after the cursor's. Within
    // the window each bucket holds events of exactly one day, and day ->
    // bucket is an order-preserving circular map, so the first hit is the
    // minimum day.
    const std::size_t b = cursor_b_;
    std::size_t pos = (b + 1) & bucket_mask_;
    while (reach > 0) {
        const std::size_t off = pos & 63U;
        const std::uint64_t word = occupied_[pos >> 6] >> off;
        const std::size_t span = std::min<std::size_t>(64 - off, reach);
        if (word != 0) {
            const auto tz = static_cast<std::size_t>(std::countr_zero(word));
            if (tz < span) {
                const std::size_t hit = pos + tz; // within the word, no wrap
                return day_ + static_cast<std::int64_t>((hit - b) & bucket_mask_);
            }
        }
        pos = (pos + span) & bucket_mask_;
        reach -= span;
    }
    return std::numeric_limits<std::int64_t>::max();
}

void PmCalendarQueue::advance_day() {
    assert(spill_.empty() && "spill events belong to the current day");
    // The next day to serve is the earliest of: the next occupied bucket,
    // the lane head's day and the overflow's min day. The bucket scan looks
    // no farther than the lane head's day.
    std::int64_t next = std::numeric_limits<std::int64_t>::max();
    std::size_t reach = bucket_mask_; // every bucket except the cursor's
    if (lane_size_ > 0) {
        next = day_of(lane_[lane_head_].event.time);
        assert(next > day_ && "a lane event on the cursor day is served first");
        reach = static_cast<std::size_t>(
            std::min<std::int64_t>(next - day_, static_cast<std::int64_t>(reach)));
    }
    next = std::min(next, next_occupied_day(reach));
    // Without a bucket hit the overflow's min day may come first
    // (peek_min's outer loop folds it in once the cursor reaches it); a
    // hit never loses to it, as every overflow day inside the window was
    // folded before this call.
    if (!overflow_.empty() && overflow_min_day_ < next) {
        next = overflow_min_day_;
    }
    assert(next != std::numeric_limits<std::int64_t>::max());
    day_ = next;
    cursor_b_ = static_cast<std::size_t>(day_) & bucket_mask_;
    cursor_sorted_ = false;
    cursor_pos_ = 0;
}

std::size_t PmCalendarQueue::requeue_stale_checks(double be, double target,
                                                  std::uint64_t seq, double& last) {
    if (lane_size_ < 2 || !(lane_[lane_head_].event.time < be)) {
        return 0; // no lane check is due before be
    }
    // The bounds the pass may not reach, from everything outside the lane:
    // a time (the cursor day's run head and spill top, and `be` itself)
    // and a day (the next occupied bucket and the overflow). A check on an
    // earlier day than a bucketed event is strictly earlier than it, as
    // day_of is monotone in t.
    double before = be;
    const std::vector<Entry>& bucket = buckets_[cursor_b_];
    if (cursor_sorted_) {
        if (cursor_pos_ < bucket.size()) {
            before = std::min(before, bucket[cursor_pos_].event.time);
        }
        if (!spill_.empty()) {
            before = std::min(before, spill_.front().event.time);
        }
    } else if (!bucket.empty()) {
        return 0; // the cursor day is not sorted: its earliest event is unknown
    }
    // Only days up to be's can hold a check strictly before be.
    const std::int64_t be_day = day_of(be);
    std::int64_t day_limit = std::numeric_limits<std::int64_t>::max();
    if (be_day > day_) {
        day_limit = next_occupied_day(static_cast<std::size_t>(std::min<std::int64_t>(
            be_day - day_, static_cast<std::int64_t>(bucket_mask_))));
    }
    if (!overflow_.empty()) {
        day_limit = std::min(day_limit, overflow_min_day_);
    }

    // The lane holds a check at be at its tail, so the loop ends there at
    // the latest; the ring's size does not change.
    const std::size_t mask = lane_cap_ - 1;
    std::size_t moved = 0;
    for (;;) {
        const Entry& head = lane_[lane_head_];
        const double t = head.event.time;
        if (!(t < before) || t > target || day_of(t) >= day_limit) {
            break;
        }
        Entry& tail = lane_[(lane_head_ + lane_size_) & mask];
        tail.event.kind = head.event.kind;
        tail.event.node = head.event.node;
        tail.event.time = be;
        tail.seq = seq;
        lane_head_ = (lane_head_ + 1) & mask;
        last = t;
        ++moved;
    }
    return moved;
}

void PmCalendarQueue::grow_lane() {
    // Unroll the ring into a buffer twice the size, head first.
    std::vector<Entry> grown(std::max<std::size_t>(16, 2 * lane_cap_));
    for (std::size_t i = 0; i < lane_size_; ++i) {
        grown[i] = lane_[(lane_head_ + i) & (lane_cap_ - 1)];
    }
    lane_.swap(grown);
    lane_cap_ = lane_.size();
    lane_head_ = 0;
}

void PmCalendarQueue::sort_day(std::vector<Entry>& day) {
    constexpr std::size_t kInsertionMax = 32;
    const Before before;
    // (time, seq) insertion sort of [first, last): linear on a run that is
    // already nearly ordered, and the cheapest sort for a few events.
    const auto insertion_sort = [&before](Entry* first, Entry* last) {
        for (Entry* i = first + 1; i < last; ++i) {
            if (!before(*i, i[-1])) {
                continue;
            }
            const Entry e = *i;
            Entry* j = i;
            do {
                *j = j[-1];
                --j;
            } while (j > first && before(e, j[-1]));
            *j = e;
        }
    };
    // Sorts one slot (or the whole day when it cannot be distributed).
    const auto sort_range = [&](Entry* first, Entry* last) {
        if (static_cast<std::size_t>(last - first) <= kInsertionMax) {
            insertion_sort(first, last);
        } else {
            std::sort(first, last, before);
        }
    };

    const std::size_t k = day.size();
    Entry* const data = day.data();
    double lo = data[0].event.time;
    double hi = lo;
    bool ordered = true;
    for (std::size_t i = 1; i < k; ++i) {
        const double t = data[i].event.time;
        ordered = ordered && !before(data[i], data[i - 1]);
        lo = std::min(lo, t);
        hi = std::max(hi, t);
    }
    if (ordered) {
        return; // an equal-time burst, pushed in seq order
    }
    const std::size_t slots = k / 2;
    const double span = hi - lo;
    const bool spread = k > kInsertionMax && span > 0.0 && std::isfinite(span);
    const double scale = spread ? static_cast<double>(slots) / span : 0.0;
    if (!spread || !std::isfinite(scale)) {
        sort_range(data, data + k);
        return;
    }

    // Distribute over `slots` slots keyed on (t - lo) * scale. The key is
    // monotone in t (subtraction, scaling by a positive factor and
    // truncation all preserve order), so a lower slot always holds earlier
    // times and only ties within a slot need the per-slot sort.
    const auto slot_of = [lo, scale, slots](const Entry& e) {
        const auto s = static_cast<std::size_t>((e.event.time - lo) * scale);
        return s < slots ? s : slots - 1;
    };
    slot_start_.assign(slots + 1, 0);
    for (std::size_t i = 0; i < k; ++i) {
        ++slot_start_[slot_of(data[i]) + 1];
    }
    for (std::size_t s = 1; s <= slots; ++s) {
        slot_start_[s] += slot_start_[s - 1];
    }
    slot_fill_.assign(slot_start_.begin(), slot_start_.end() - 1);
    if (lane_size_ == 0 && lane_cap_ >= k) {
        // Out of place through the idle lane ring: each event goes straight
        // to its slot's fill cursor, independent of the others, and the
        // distributed day is copied back. A synchronized cluster's day
        // takes this path: its busy checks have all run.
        Entry* const out = lane_.data();
        for (std::size_t i = 0; i < k; ++i) {
            out[slot_fill_[slot_of(data[i])]++] = data[i];
        }
        std::copy(out, out + k, data);
    } else {
        // In place, when the lane is busy or too small. Cycle leader: carry
        // each misplaced event to its slot's fill cursor and pick up the
        // event it displaces, until one belongs here — one chain of
        // dependent loads.
        for (std::size_t s = 0; s < slots; ++s) {
            const std::uint32_t end = slot_start_[s + 1];
            while (slot_fill_[s] < end) {
                Entry e = data[slot_fill_[s]];
                for (std::size_t d = slot_of(e); d != s; d = slot_of(e)) {
                    std::swap(e, data[slot_fill_[d]++]);
                }
                data[slot_fill_[s]++] = e;
            }
        }
    }
    for (std::size_t s = 0; s < slots; ++s) {
        if (slot_start_[s + 1] - slot_start_[s] > 1) {
            sort_range(data + slot_start_[s], data + slot_start_[s + 1]);
        }
    }
}

std::size_t PmCalendarQueue::memory_bytes() const noexcept {
    std::size_t bytes = buckets_.capacity() * sizeof(std::vector<Entry>) +
                        occupied_.capacity() * sizeof(std::uint64_t) +
                        overflow_.capacity() * sizeof(Entry) +
                        spill_.capacity() * sizeof(Entry) +
                        lane_.capacity() * sizeof(Entry) +
                        (slot_start_.capacity() + slot_fill_.capacity()) *
                            sizeof(std::uint32_t);
    for (const std::vector<Entry>& b : buckets_) {
        bytes += b.capacity() * sizeof(Entry);
    }
    return bytes;
}

// ---------------------------------------------------------------------------
// PmKernel: the per-event steps
//
// A timer fire and its busy check run these steps and nothing else. They
// are forced inline so run_loop compiles them into its body; left to its
// own heuristics the compiler kept them as separate functions, about a
// dozen calls per transmission.
//
// With `Plain` set (plain_run() held when run_until started) the model is
// the default one and nothing watches single events, so each step drops
// the tests whose answer that fixes: `Plain || x` folds to true and
// `if constexpr (!Plain)` removes the block.

template <typename Queue>
[[gnu::always_inline]] inline void PmKernel::push_event(Queue& queue, sim::SimTime at,
                                                        std::uint32_t kind,
                                                        std::uint32_t node) {
    queue.push(at.sec(), next_seq_++, kind, node);
}

template <bool Plain>
[[gnu::always_inline]] inline sim::SimTime PmKernel::draw_interval(int i) {
    if (!Plain && !params_.per_node_tp.empty()) {
        const double tp_i = params_.per_node_tp[static_cast<std::size_t>(i)];
        return sim::SimTime::seconds(rng::uniform_real(
            gen_, tp_i - params_.tr.sec(), tp_i + params_.tr.sec()));
    }
    if (Plain || fast_draw_) {
        // lo + span*u01 with span = hi - lo hoisted: bit-identical to
        // rng::uniform_real(gen, lo, hi), which UniformJitter calls.
        return sim::SimTime::seconds(draw_lo_ + draw_span_ * rng::uniform01(gen_));
    }
    return policy_->next_interval(gen_);
}

template <bool Plain, typename Queue>
[[gnu::always_inline]] inline void PmKernel::schedule_timer(Queue& queue, int i,
                                                            sim::SimTime at) {
    const auto idx = static_cast<std::size_t>(i);
    assert((timer_gen_[idx] & 1U) == 0 && "node already has a pending timer");
    const std::uint32_t gen = ++timer_gen_[idx]; // odd = pending
    push_event(queue, at, ((gen & kPmGenMask) << kPmKindBits) | kPmTimer,
               static_cast<std::uint32_t>(i));
    next_expiry_[idx] = at;
    if constexpr (!Plain) {
        if (tracer_ != nullptr) {
            tracer_->emit(obs::TraceEventType::TimerSet, now_, i, 0,
                          (at - now_).sec());
        }
    }
}

template <bool Plain, typename Queue>
[[gnu::always_inline]] inline void PmKernel::timer_set(Queue& queue, int i) {
    schedule_timer<Plain>(queue, i, now_ + draw_interval<Plain>(i));
    if (tracker_ != nullptr) {
        tracker_->on_timer_set(i, now_);
    } else if constexpr (!Plain) {
        if (on_timer_set) {
            on_timer_set(i, now_);
        }
    }
    if constexpr (!Plain) {
        if (monitor_ != nullptr) {
            monitor_->on_timer_set(i, now_);
        }
    }
}

template <bool Plain>
[[gnu::always_inline]] inline void PmKernel::extend_busy(int i, sim::SimTime t) {
    if (Plain || shared_busy_) {
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

template <bool Plain, typename Queue>
[[gnu::always_inline]] inline bool PmKernel::begin_transmission(Queue& queue, int i) {
    const sim::SimTime now = now_;
    const auto idx = static_cast<std::size_t>(i);

    ++transmissions_[idx];
    ++tx_count_;
    if constexpr (!Plain) {
        if (monitor_ != nullptr) {
            monitor_->on_transmit(i, now);
        }
        if (on_transmit) {
            on_transmit(i, now);
        }
        if (tracer_ != nullptr) {
            tracer_->emit(obs::TraceEventType::UpdateTx, now, i,
                          static_cast<std::int64_t>(transmissions_[idx]));
        }
    }

    const bool rearm_after_busy = Plain || !reset_at_expiry_;
    if (rearm_after_busy) {
        ++pending_state_[idx]; // own-transmission count (low bits)
    }
    extend_busy<Plain>(i, now);
    const bool check_owed =
        rearm_after_busy && (pending_state_[idx] & kBusyCheckQueued) == 0;
    if (check_owed) {
        pending_state_[idx] |= kBusyCheckQueued;
    }

    if (Plain || immediate_) {
        // Shared-busy mode: the broadcast is already done. In the engine
        // model every node applies the same extend rule to its own copy
        // of the same prior value at the same instant, so all n copies
        // land on one new value — which the sender's extend_busy above
        // just computed on the shared scalar. O(1) per transmission
        // instead of O(n), bit-identical by induction on "all copies
        // equal". The other nodes' busy ends do not move busy_end(i), so
        // the caller's check push lands exactly as the engine's does.
        if (!Plain && !shared_busy_) {
            for (int j = 0; j < params_.n; ++j) {
                if (j != i) {
                    extend_busy<false>(j, now);
                }
            }
        }
        return check_owed;
    }
    if (check_owed) {
        push_event(queue, busy_end(i), kPmBusyCheck, static_cast<std::uint32_t>(i));
    }
    push_event(queue, now + params_.tc, kPmDeliver, static_cast<std::uint32_t>(i));
    return false;
}

template <bool Plain, typename Queue>
[[gnu::always_inline]] inline bool PmKernel::timer_expired(Queue& queue, int i) {
    ++timer_gen_[static_cast<std::size_t>(i)]; // odd -> even: none pending
    if constexpr (!Plain) {
        if (tracer_ != nullptr) {
            tracer_->emit(obs::TraceEventType::TimerFire, now_, i);
        }
        if (reset_at_expiry_) {
            timer_set<Plain>(queue, i);
        }
    }
    const ProfiledStep step{!Plain && profiled_, "pm.begin_transmission"};
    return begin_transmission<Plain>(queue, i);
}

template <bool Plain, typename Queue>
[[gnu::always_inline]] inline void PmKernel::busy_check(Queue& queue, int i,
                                                        double target_sec) {
    const sim::SimTime be = busy_end<Plain>(i);
    if (be > now_) {
        // Extended after this check was scheduled; re-arm at the new end
        // (lazy revalidation, queued flag stays set).
        push_event(queue, be, kPmBusyCheck, static_cast<std::uint32_t>(i));
        if constexpr (std::is_same_v<Queue, PmCalendarQueue>) {
            // With one shared busy end, every check the queue serves next
            // before be is just as stale: each is one event that re-queues
            // itself at be, run here in one pass. No such check calls out
            // (no trace event, callback or draw), so the general loop takes
            // the pass too. Per-node busy ends differ, and keep the queue.
            if (Plain || shared_busy_) {
                double last = 0.0;
                const std::size_t moved =
                    queue.requeue_stale_checks(be.sec(), target_sec, next_seq_ - 1, last);
                if (moved != 0) {
                    processed_ += moved;
                    now_ = sim::SimTime::seconds(last);
                }
            }
        }
        return;
    }
    std::uint32_t& ps = pending_state_[static_cast<std::size_t>(i)];
    ps &= ~kBusyCheckQueued;
    if (ps != 0) { // own transmissions occurred: re-arm
        ps = 0;
        timer_set<Plain>(queue, i);
    }
}

template <typename Fn>
void PmKernel::with_queue(Fn&& fn) {
    if (calendar_) {
        fn(*calendar_);
    } else {
        fn(run_);
    }
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
    with_queue([this](auto& queue) {
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
            schedule_timer<false>(queue, i, now_ + first);
        }
    });
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
    with_queue([&](auto& queue) { push_event(queue, t, kPmTrigger, 0); });
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
    with_queue([&](auto& queue) { push_event(queue, t, kPmHook, slot); });
}

// ---------------------------------------------------------------------------
// Trigger waves and delayed delivery (off the hot path)

template <typename Queue>
void PmKernel::trigger_node(Queue& queue, int i) {
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
    const ProfiledStep step{profiled_, "pm.begin_transmission"};
    if (begin_transmission<false>(queue, i)) {
        push_event(queue, busy_end(i), kPmBusyCheck, static_cast<std::uint32_t>(i));
    }
}

void PmKernel::deliver_from(int i) {
    for (int j = 0; j < params_.n; ++j) {
        if (j != i) {
            extend_busy<false>(j, now_);
        }
    }
}

// ---------------------------------------------------------------------------
// Run loop

template <bool Plain, typename Queue>
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
        const auto i = static_cast<int>(e.node);
        switch (e.kind & kPmKindMask) {
        case kPmTimer: {
            bool check_owed = false;
            {
                const ProfiledStep step{!Plain && profiled_, "pm.timer_fire"};
                check_owed = timer_expired<Plain>(queue, i);
            }
            if (!check_owed) {
                break;
            }
            // The check is the fire's last push. When every queued event
            // is strictly later, the queue would serve it next: run it now
            // as that event instead of a push/peek/pop round trip. A check
            // past the target, or a stop requested during the fire, leaves
            // it queued, as on the engine.
            const sim::SimTime be = busy_end<Plain>(i);
            if (stopped_ || be.sec() > target_sec || !queue.all_later_than(be.sec())) {
                push_event(queue, be, kPmBusyCheck, static_cast<std::uint32_t>(i));
                break;
            }
            now_ = be;
            ++processed_;
            [[fallthrough]];
        }
        case kPmBusyCheck:
            busy_check<Plain>(queue, i, target_sec);
            break;
        case kPmDeliver:
            deliver_from(i);
            break;
        case kPmTrigger:
            for (int j = 0; j < params_.n; ++j) {
                trigger_node(queue, j);
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
    // stopped: the clock stays at the last event
}

bool PmKernel::plain_run() const noexcept {
    const bool default_model = shared_busy_ && !reset_at_expiry_ && fast_draw_;
    const bool unwatched = tracer_ == nullptr && !on_transmit && monitor_ == nullptr &&
                           (tracker_ != nullptr || !on_timer_set) &&
                           obs::Profiler::current() == nullptr &&
                           hooks_.size() == free_hooks_.size();
    return default_model && unwatched;
}

void PmKernel::run_until(sim::SimTime target) {
    // The profiler and the loop's shape are read once per call: a callback
    // set or cleared from inside the run takes effect at the next call.
    profiled_ = obs::Profiler::current() != nullptr;
    const bool plain = plain_run();
    with_queue([&](auto& queue) {
        if (plain) {
            run_loop<true>(queue, target);
        } else {
            run_loop<false>(queue, target);
        }
    });
}

} // namespace routesync::core
