// Fast-path kernel for the Periodic Messages model.
//
// `PeriodicMessagesModel` runs on the generic DES engine: every timer is a
// type-erased callback in a general-purpose priority queue, and every
// transmission walks all N nodes to extend their busy periods. This kernel
// is the same model compiled down to its actual physics, one trial per
// kernel:
//
//   * Struct-of-arrays node state: next-expiry, transmission counters,
//     timer generations and pending-own counts live in flat arrays, one
//     exact-size allocation each. The fixed arrays are 24 B/router in the
//     default shared-busy model (see node_state_bytes()).
//   * One event type (`PmEvent`, 16 bytes, no callback) and two queues
//     behind one push/peek/pop interface, picked from n
//     (kPmCalendarMinNodes): a `PmSortedRunQueue` for small n, where a
//     re-armed timer lands at the queue maximum and a push is an append,
//     and a `PmCalendarQueue` for large n, where a synchronized cluster
//     re-arms n timers inside one +-Tr window in random order and a
//     sorted run would pay O(n) per insert.
//   * The paper's own Section 4 assumptions collapse the hot loop: under
//     Notification::Immediate with a shared Tc, *every* node's busy period
//     ends at the same instant at all times (all start idle; every
//     transmission applies the same extend rule to all nodes at the same
//     moment). The kernel therefore keeps ONE shared busy-until scalar and
//     turns the engine model's O(N) per-transmission broadcast into O(1).
//     Per-node Tc or AfterPreparation notification fall back to a per-node
//     busy array with the same event ordering.
//
// Fidelity contract: a kernel run is *bit-identical* to the engine-backed
// model run of the same params — same RNG draw order, same (time, FIFO)
// event execution order, same events_processed count, same trace events
// (types, sequence numbers, payloads) when tracing is on, and therefore
// the same ClusterTracker series. The randomized differentials in
// tests/pm_kernel_test.cpp and the frozen traced-run golden hash in
// determinism_test enforce this on both queues.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/periodic_messages.hpp"
#include "core/timer_policy.hpp"
#include "rng/rng.hpp"
#include "sim/time.hpp"

namespace routesync::obs {
class Tracer;
}

namespace routesync::core {

class ClusterTracker;

/// One pending kernel event: plain data, 16 bytes, no callback. Events
/// at equal times run in push order, as on the engine queue: every push
/// carries the kernel's FIFO push counter (`seq`), which the sorted run
/// keeps implicitly by position and the calendar stores beside the event.
struct PmEvent {
    double time = 0.0;
    std::uint32_t kind = 0; ///< packed: see kPmKindBits
    std::uint32_t node = 0;
};

enum PmEventKind : std::uint32_t {
    kPmTimer = 0,     ///< a node's routing timer expires
    kPmBusyCheck = 1, ///< end-of-busy-period check (lazy revalidation)
    kPmDeliver = 2,   ///< AfterPreparation message delivery
    kPmTrigger = 3,   ///< triggered-update wave on every node
    kPmHook = 4,      ///< scheduled std::function (resource sampling etc.)
};

/// PmEvent::kind packs the PmEventKind in the low 3 bits; for kPmTimer
/// events the upper 29 bits carry the scheduling node's re-arm generation
/// (PmKernel::timer_gen_, below) so a queued timer identifies itself as
/// live or stale with one integer compare — no per-node 8-byte seq needed.
inline constexpr std::uint32_t kPmKindBits = 3;
inline constexpr std::uint32_t kPmKindMask = (1U << kPmKindBits) - 1;
inline constexpr std::uint32_t kPmGenMask = 0xFFFFFFFFU >> kPmKindBits;

/// A kernel with at least this many routers keeps its events in a
/// PmCalendarQueue; smaller ones use a PmSortedRunQueue. The value is
/// the measured crossover of one bare kernel on each queue at the metro
/// shapes (docs/PERFORMANCE.md, "One PM kernel"): below it the sorted
/// run's append-mostly pushes win (2.7x at n = 30); above it a
/// synchronized cluster's random-order re-arms make every sorted-run
/// round O(n^2) (2.8x slower at n = 1000, 35x at n = 30 000).
inline constexpr int kPmCalendarMinNodes = 300;

/// Calendar buckets keep their storage across days (steady-state rounds
/// reuse it allocation-free) up to this many events; a drained bucket
/// above the threshold returns its storage — see pop_min.
inline constexpr std::size_t kPmBucketRetainEvents = 256;

/// Sorted-run timer queue for PmEvents: the pending events sit in one
/// flat array in ascending (time, seq) order, consumed through a head
/// cursor, with a one-slot hold buffer fusing the ubiquitous
/// push-then-pop cycle (a re-armed timer is usually the next event
/// served). The model makes this degenerate-fast at small n: a re-armed
/// timer lands at now + Tp +- jitter, which is (almost) the queue MAXIMUM,
/// so a push is an append with a rarely-iterating backward bubble and a
/// pop is a cursor bump — no heap sift on either side.
///
/// FIFO among equal times needs no stored seq: pushes arrive in seq
/// order, an insert lands behind every queued event of the same time, and
/// the hold (always the newest event) is served only at a STRICTLY
/// earlier time than the run's head.
class PmSortedRunQueue {
public:
    /// `seq` is the kernel's push counter, increasing from push to push;
    /// the run keeps its order by position.
    void push(double time, [[maybe_unused]] std::uint64_t seq,
              std::uint32_t kind, std::uint32_t node) {
        if (has_hold_) {
            insert(hold_);
        }
        hold_ = PmEvent{time, kind, node};
        has_hold_ = true;
    }

    [[nodiscard]] bool empty() const noexcept { return !has_hold_ && drained(); }
    [[nodiscard]] std::size_t size() const noexcept {
        return run_.size() - head_ + (has_hold_ ? 1U : 0U);
    }

    /// Locates the earliest event (by time, then push order) without
    /// removing it. Precondition: !empty().
    [[nodiscard]] const PmEvent& peek_min() noexcept {
        assert(!empty());
        peek_from_hold_ = has_hold_ && (drained() || hold_.time < run_[head_].time);
        return peek_from_hold_ ? hold_ : run_[head_];
    }

    /// Removes the event peek_min() returned. Must follow a peek_min()
    /// with no intervening push.
    void pop_min() {
        if (peek_from_hold_) {
            has_hold_ = false;
            return;
        }
        // O(1): consume by cursor. The dead prefix is recycled wholesale —
        // either free (run drained) or one small memmove of the live
        // window (at most n + a few events) every kCompactAt pops.
        constexpr std::size_t kCompactAt = 64;
        ++head_;
        if (drained()) {
            run_.clear();
            head_ = 0;
        } else if (head_ >= kCompactAt) {
            run_.erase(run_.begin(),
                       run_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    /// Bytes retained by the run's storage (capacity, not size).
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return run_.capacity() * sizeof(PmEvent);
    }

private:
    /// True when the run holds no unconsumed event. Compares positions
    /// rather than size(), which would divide by sizeof(PmEvent) = 24.
    [[nodiscard]] bool drained() const noexcept {
        return run_.begin() + static_cast<std::ptrdiff_t>(head_) == run_.end();
    }
    /// Appends, then bubbles backward past every strictly later event:
    /// zero iterations in the dominant case (a re-armed timer is the queue
    /// maximum; only cluster-mates re-arming under the same jitter window
    /// bubble a few slots, and the near-minimum busy checks are absorbed
    /// by the hold).
    void insert(const PmEvent& e) {
        run_.push_back(e);
        PmEvent* const first = run_.data() + head_;
        PmEvent* slot = &run_.back();
        while (slot > first && e.time < slot[-1].time) {
            *slot = slot[-1];
            --slot;
        }
        *slot = e;
    }

    std::vector<PmEvent> run_; ///< live window is [head_, size())
    std::size_t head_ = 0;
    PmEvent hold_{};           ///< the most recent push, outside the run
    bool has_hold_ = false;
    bool peek_from_hold_ = false; ///< which source the last peek chose
};

/// Two-level calendar/bucket timer queue for PmEvents.
///
/// Level 1: `bucket_count` (power of two) day buckets of width
/// `bucket_width` seconds; an event lands in bucket floor(t/w) mod B.
/// Because the horizon B*w is sized beyond the maximum scheduling offset
/// the model produces (one full timer interval plus the busy-period
/// slack), a bucket holds events of a single "day" at a time. A bitmap of
/// non-empty buckets turns the ~Tp idle gap between rounds into a couple
/// of count-trailing-zeros jumps. Level 2: events beyond the horizon wait
/// in an unsorted overflow vector and are folded into the buckets when the
/// current day reaches them (`min-day` cached so the common case tests one
/// branch).
///
/// Batched expiry: when the day cursor reaches a bucket, the bucket is
/// sorted ONCE into an ascending (time, seq) run and consumed by bumping a
/// cursor — no per-event heap sift. At metro scale a synchronized cluster
/// drops 10^5+ equal-time timers into one bucket; draining them costs one
/// O(k log k) sort plus k pointer bumps instead of k * O(log k)
/// sift-downs over a k-wide heap (and the sorted run is scanned
/// sequentially, not hopped through heap levels). Events pushed into the
/// *current* bucket after its sort (re-armed timers landing in the same
/// day, busy-check re-arms) go to a small `spill` min-heap; peek serves
/// whichever of run-head/spill-top is earlier, which preserves the exact
/// global order because both sources are themselves (time, seq)-ordered.
///
/// Ordering is strictly (time, seq) — identical to sim::EventQueue's
/// FIFO-among-equal-times contract.
class PmCalendarQueue {
public:
    /// `horizon_hint`: an upper estimate of how far ahead of `now` events
    /// get scheduled (e.g. max timer interval + N*Tc). The queue stays
    /// correct if the hint is wrong — outliers go through overflow — but
    /// accurate hints keep placement O(1).
    explicit PmCalendarQueue(double horizon_hint);

    // The push/peek/pop trio runs once per simulated event; defined
    // inline so the kernel's run loop compiles down to direct bucket and
    // cursor operations with no cross-TU calls.

    void push(double time, std::uint64_t seq, std::uint32_t kind,
              std::uint32_t node) {
        const Entry entry{PmEvent{time, kind, node}, seq};
        const std::int64_t d = day_of(time);
        assert(d >= day_ && "push into the past breaks the day cursor");
        if (d >= day_ + static_cast<std::int64_t>(bucket_count_)) {
            if (overflow_.empty() || d < overflow_min_day_) {
                overflow_min_day_ = d;
            }
            overflow_.push_back(entry);
        } else {
            const std::size_t b = static_cast<std::size_t>(d) & bucket_mask_;
            if (cursor_sorted_ && b == cursor_b_) {
                // In-window pushes to the cursor index are always
                // cursor-day events (an aliasing day would be >= day_ + B,
                // i.e. overflow). The sorted run must not be disturbed, so
                // late arrivals heap into the spill lane. Re-armed timers
                // carry fresh (monotone) seqs at now+Tp-ish times, so the
                // typical sift terminates immediately.
                spill_.push_back(entry);
                std::push_heap(spill_.begin(), spill_.end(), after);
            } else {
                buckets_[b].push_back(entry);
                occupied_[b >> 6] |= std::uint64_t{1} << (b & 63U);
            }
        }
        ++live_;
    }

    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return live_; }

    /// Locates the earliest event (by time, then seq) without removing
    /// it. Precondition: !empty(). Advances the internal day cursor over
    /// idle gaps as a side effect (monotone, so repeated peeks are cheap).
    [[nodiscard]] const PmEvent& peek_min() {
        assert(live_ > 0);
        for (;;) {
            if (!overflow_.empty() &&
                overflow_min_day_ <
                    day_ + static_cast<std::int64_t>(bucket_count_)) {
                flush_overflow();
            }
            std::vector<Entry>& bucket = buckets_[cursor_b_];
            if (!cursor_sorted_ && !bucket.empty()) {
                std::sort(bucket.begin(), bucket.end(), before);
                cursor_sorted_ = true;
                cursor_pos_ = 0;
            }
            const bool have_run = cursor_sorted_ && cursor_pos_ < bucket.size();
            if (have_run || !spill_.empty()) {
                if (!have_run) {
                    peek_from_spill_ = true;
                    return spill_.front().event;
                }
                if (!spill_.empty() && before(spill_.front(), bucket[cursor_pos_])) {
                    peek_from_spill_ = true;
                    return spill_.front().event;
                }
                peek_from_spill_ = false;
                return bucket[cursor_pos_].event;
            }
            advance_to_next_bucket();
        }
    }

    /// Removes the event peek_min() returned. Must follow a peek_min()
    /// with no intervening push.
    void pop_min() {
        std::vector<Entry>& bucket = buckets_[cursor_b_];
        assert(cursor_sorted_ && "pop_min without a preceding peek_min");
        if (peek_from_spill_) {
            assert(!spill_.empty());
            std::pop_heap(spill_.begin(), spill_.end(), after);
            spill_.pop_back();
        } else {
            assert(cursor_pos_ < bucket.size());
            ++cursor_pos_;
        }
        --live_;
        if (cursor_pos_ >= bucket.size() && spill_.empty()) {
            // Day fully drained: release the run in one shot and return
            // the bucket to append-only mode for its next day.
            bucket.clear();
            if (bucket.capacity() > kPmBucketRetainEvents) {
                // A synchronized cluster drops its whole membership into
                // one day — a different ring slot every round, since the
                // cluster period is not a multiple of the horizon. Left
                // alone, each visited slot would keep that high-water
                // capacity forever and the queue's footprint would grow
                // by ~24*N bytes per round. Oversized runs are rare (one
                // per cluster round), so one free/realloc cycle per round
                // is noise next to the O(N log N) sort that consumed it.
                std::vector<Entry>{}.swap(bucket);
            }
            occupied_[cursor_b_ >> 6] &=
                ~(std::uint64_t{1} << (cursor_b_ & 63U));
            cursor_sorted_ = false;
            cursor_pos_ = 0;
        }
    }

    /// Bytes retained by bucket/overflow/spill storage (capacity, not
    /// size) — the queue's share of a kernel memory report.
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

private:
    /// A queued event and its push counter: buckets are filled out of
    /// push order (overflow folds, spills), so the calendar orders by the
    /// stored seq. 24 bytes.
    struct Entry {
        PmEvent event;
        std::uint64_t seq;
    };

    void flush_overflow();
    void advance_to_next_bucket();

    [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
        return a.event.time < b.event.time ||
               (a.event.time == b.event.time && a.seq < b.seq);
    }
    /// std::*_heap comparator for a MIN-heap on (time, seq).
    [[nodiscard]] static bool after(const Entry& a, const Entry& b) noexcept {
        return before(b, a);
    }

    [[nodiscard]] std::int64_t day_of(double t) const noexcept {
        return static_cast<std::int64_t>(t * inv_width_);
    }

    double width_;
    double inv_width_;
    std::size_t bucket_count_;
    std::size_t bucket_mask_;
    std::int64_t day_ = 0; ///< current day cursor (buckets before it are empty)
    std::size_t cursor_b_ = 0; ///< cached day_ & bucket_mask_
    std::size_t live_ = 0;
    std::vector<std::vector<Entry>> buckets_;
    std::vector<std::uint64_t> occupied_; ///< bitmap over buckets
    std::vector<Entry> overflow_;         ///< events with day >= day_ + B
    std::int64_t overflow_min_day_ = 0;   ///< valid when !overflow_.empty()
    /// True when the cursor-day bucket has been sorted into its
    /// consumption run. Invariants: cursor_pos_ > 0 and spill_ non-empty
    /// only while cursor_sorted_; spill_ holds only cursor-day events.
    bool cursor_sorted_ = false;
    bool peek_from_spill_ = false; ///< which source the last peek chose
    std::size_t cursor_pos_ = 0;   ///< next unconsumed index in the run
    std::vector<Entry> spill_;     ///< min-heap of post-sort same-day pushes
};

/// The fused engine+model fast path: runs one Periodic Messages trial
/// with its own RNG, event queue and clock, and mirrors the externally
/// observable API of (sim::Engine, PeriodicMessagesModel).
class PmKernel {
public:
    /// Same contract as PeriodicMessagesModel: validates `params` (same
    /// checks and messages), then draws the first expiries in node order
    /// and schedules the initial timers — the RNG consumption matches an
    /// engine construction of the same params. A null `policy` means
    /// UniformJitter(tp, tr); `tracer` may be null.
    explicit PmKernel(ModelParams params,
                      std::unique_ptr<TimerPolicy> policy = nullptr,
                      obs::Tracer* tracer = nullptr);

    PmKernel(const PmKernel&) = delete;
    PmKernel& operator=(const PmKernel&) = delete;

    /// Fires when a node's timer expires and it begins transmitting.
    std::function<void(int node, sim::SimTime t)> on_transmit;
    /// Fires when a node completes its busy period and re-arms its timer,
    /// unless a tracker sink is set.
    std::function<void(int node, sim::SimTime t)> on_timer_set;
    /// Direct ClusterTracker feed for timer re-arms. When set it takes the
    /// place of `on_timer_set`: the experiment driver's only use of that
    /// callback is forwarding to the trial's tracker, and the re-arm site
    /// is hot enough that skipping the std::function hop is measurable.
    void set_tracker_sink(ClusterTracker* tracker) noexcept { tracker_ = tracker; }

    /// Schedules a triggered update on every node at absolute time `t`
    /// (the ExperimentConfig::trigger_all_at path). Must be scheduled in
    /// the same relative push order as the engine path: after
    /// construction, before running.
    void schedule_trigger_all(sim::SimTime t);

    /// Schedules `fn` to run once at absolute time `t` as a kernel event
    /// (it advances now() and counts in events_processed(), matching an
    /// Engine-scheduled callback). This is the hook the ResourceSampler
    /// uses to tick over virtual time on the kernel path.
    void schedule_hook(sim::SimTime t, std::function<void()> fn);

    /// sim::Engine::run_until(target) semantics: stop() leaves the clock
    /// at the last event; otherwise the clock lands on the target.
    void run_until(sim::SimTime target);

    void stop() noexcept { stopped_ = true; }
    void clear_stop() noexcept { stopped_ = false; }
    [[nodiscard]] bool stop_requested() const noexcept { return stopped_; }

    [[nodiscard]] sim::SimTime now() const noexcept { return now_; }
    /// Callbacks executed so far — matches Engine::events_processed()
    /// step for step (cancelled timers never execute or count).
    [[nodiscard]] std::uint64_t events_processed() const noexcept {
        return processed_;
    }
    [[nodiscard]] std::uint64_t total_transmissions() const noexcept {
        return tx_count_;
    }
    [[nodiscard]] sim::SimTime round_length() const noexcept;
    [[nodiscard]] NodeView node(int i) const;

    /// True when every node shares one busy-until scalar (Immediate
    /// notification, uniform Tc) — the O(1)-per-transmission fast variant.
    [[nodiscard]] bool shared_busy() const noexcept { return shared_busy_; }
    /// True when the events live in a PmCalendarQueue (n >=
    /// kPmCalendarMinNodes), false for a PmSortedRunQueue.
    [[nodiscard]] bool calendar_queue() const noexcept { return calendar_ != nullptr; }

    /// Bytes of the SoA node arrays. In the default shared-busy model that
    /// is 24 B/router: next_expiry (8) + transmissions (8) + timer_gen (4)
    /// + pending_state (4).
    [[nodiscard]] std::size_t node_state_bytes() const noexcept;
    /// Bytes of kernel state retained: the node arrays plus the event
    /// queue's storage (capacities, not sizes). Divide by n for the
    /// bytes/router a metro-scale memory budget needs.
    [[nodiscard]] std::size_t state_bytes() const noexcept;
    /// Live events in the queue (for rs.* gauges).
    [[nodiscard]] std::size_t queue_size() const noexcept;

private:
    void push_event(sim::SimTime at, std::uint32_t kind, std::uint32_t node);
    [[nodiscard]] sim::SimTime draw_interval(int i);
    void schedule_timer(int i, sim::SimTime at);
    void timer_set(int i);
    void trigger_node(int i);
    void timer_expired(int i);
    void begin_transmission(int i);
    void deliver_from(int i);
    void busy_check(int i);
    void extend_busy(int i, sim::SimTime t);
    [[nodiscard]] sim::SimTime busy_end(int i) const noexcept {
        return shared_busy_ ? shared_busy_end_
                            : busy_end_[static_cast<std::size_t>(i)];
    }
    void dispatch(const PmEvent& e);
    template <typename Queue>
    void run_loop(Queue& queue, sim::SimTime target);

    ModelParams params_;
    std::unique_ptr<TimerPolicy> policy_;
    obs::Tracer* tracer_ = nullptr;
    ClusterTracker* tracker_ = nullptr;
    rng::DefaultEngine gen_{0};

    // SoA node state, index = node id. timer_gen is bumped on every
    // schedule/fire/cancel, so odd = pending, and its truncated value is
    // compared against the generation packed into a surfacing timer event
    // (a stale event can outlive at most a few transitions, so 29 bits
    // cannot alias). pending_state fuses the pending-own count and the
    // busy-check flag into one word (bit 31 = a busy-check event is
    // queued; low 31 bits = own transmissions awaiting re-arm) and is
    // sized n only when !reset_at_expiry; busy_end only without a shared
    // busy scalar. Each is one exact-size allocation that never grows.
    std::vector<sim::SimTime> next_expiry_;
    std::vector<std::uint64_t> transmissions_;
    std::vector<std::uint32_t> timer_gen_;
    std::vector<std::uint32_t> pending_state_;
    std::vector<sim::SimTime> busy_end_;

    PmSortedRunQueue run_;                      ///< n < kPmCalendarMinNodes
    std::unique_ptr<PmCalendarQueue> calendar_; ///< n >= kPmCalendarMinNodes
    std::vector<std::function<void()>> hooks_;  ///< kPmHook slots
    std::vector<std::uint32_t> free_hooks_;     ///< recycled hook slots

    std::uint64_t next_seq_ = 0; ///< mirrors the engine queue's push counter
    std::uint64_t processed_ = 0;
    std::uint64_t tx_count_ = 0;
    sim::SimTime now_ = sim::SimTime::zero();
    sim::SimTime shared_busy_end_ = -sim::SimTime::seconds(1.0);
    double draw_lo_ = 0.0;   ///< uniform-jitter fast path: lo constant
    double draw_span_ = 0.0; ///< uniform-jitter fast path: hi - lo
    bool fast_draw_ = false; ///< UniformJitter and no per-node Tp
    bool shared_busy_ = true;
    bool reset_at_expiry_ = false;
    bool immediate_ = true;
    bool can_cancel_ = false; ///< a timer may have been cancelled
    bool stopped_ = false;
    /// A profiler was installed when run_until started: the
    /// pm.timer_fire and pm.begin_transmission scopes are recorded.
    bool profiled_ = false;
};

} // namespace routesync::core
