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
//   * A busy check that is provably the next event runs inline: when a
//     timer fire's check would be served straight after it (every queued
//     event is strictly later), the run loop runs it as that event without
//     queueing it. In the unsynchronized regime that is almost every
//     transmission.
//   * Stale busy checks move in one pass: on the calendar, in the
//     shared-busy model, the busy check that finds the shared busy period
//     extended re-queues itself at its end and moves every following
//     check the queue would serve next, all equally stale, to the same
//     end in the same call. A synchronized cluster's busy chain then
//     costs one queued check per member, not two.
//   * The run loop is compiled twice per queue. A *plain run* (the
//     default model, with nothing watching single events; see
//     plain_run()) takes an instantiation whose per-event steps carry no
//     test of the tracer, the callbacks, the profiler or a model variant:
//     those tests are constants for the whole run. Every other run takes
//     the general instantiation. The steps are written once and drop the
//     plain run's dead branches with `if constexpr`.
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
class SyncMonitor;
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
/// PmCalendarQueue; smaller ones use a PmSortedRunQueue. One bare kernel
/// on each queue at the metro shapes (docs/PERFORMANCE.md, "Queue
/// selection") crosses over between n = 125 and 150: below it the sorted
/// run's append-mostly pushes win (4.6x at n = 30); above it the
/// calendar does (1.3x at n = 200), and a synchronized cluster's
/// random-order re-arms make every sorted-run round O(n^2) (5.8x slower
/// at n = 1000, 148x at n = 30 000). The value is the first scanned n
/// past the crossover where the calendar also stays well inside the
/// 512 B/router its smallest rungs are held to (657 B/router at n = 150,
/// 418 at n = 200): its 1024 bucket headers and bitmap are a fixed ~25 KB.
inline constexpr int kPmCalendarMinNodes = 200;

/// A drained calendar bucket keeps its storage for its next day up to this
/// many events and returns anything larger — see pop_min. Busy checks ride
/// the calendar's FIFO lane, so the buckets hold timers: a few stragglers
/// per day, or one cluster's whole membership, which is re-grown each round
/// rather than left behind in every ring slot the cluster visits.
inline constexpr std::size_t kPmBucketRetainEvents = 16;

/// Sorted-run timer queue for PmEvents: the pending events sit in one
/// flat array in ascending (time, seq) order, consumed through a head
/// cursor, with a one-slot hold buffer for the newest push. The model
/// makes this degenerate-fast at small n: a re-armed timer lands at
/// now + Tp +- jitter, which is (almost) the queue MAXIMUM, so a push is an
/// append with a rarely-iterating backward bubble and a pop is a cursor
/// bump — no heap sift on either side. The hold fuses push-then-pop for
/// the near-minimum pushes: a queued busy check lands at now + Tc and is
/// usually the next event served, straight from the hold.
///
/// FIFO among equal times needs no stored seq: pushes arrive in seq
/// order, an insert lands behind every queued event of the same time, and
/// the hold (always the newest event) is served only at a STRICTLY
/// earlier time than the run's head.
class PmSortedRunQueue {
public:
    /// `seq` is the kernel's push counter, increasing from push to push;
    /// the run keeps its order by position. Forced inline, with insert: a
    /// timer re-arm pushes once per transmission.
    [[gnu::always_inline]] void push(double time, [[maybe_unused]] std::uint64_t seq,
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

    /// True when every queued event is strictly later than `t`, read from
    /// the hold and the run's head; no side effects.
    [[nodiscard]] bool all_later_than(double t) const noexcept {
        return (!has_hold_ || hold_.time > t) && (drained() || run_[head_].time > t);
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
    [[gnu::always_inline]] void insert(const PmEvent& e) {
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

/// Two-level calendar/bucket timer queue for PmEvents, plus a FIFO lane.
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
/// cursor — no per-event heap sift. The day sort is exact and linear in
/// expected time (sort_day): an ordered day (an equal-time burst) is left
/// as it is, a small day is insertion-sorted, and a large one is
/// distributed over ~k/2 slots by its position between the day's earliest
/// and latest time, then each slot is sorted. The distribution scatters
/// the day out of place into the lane's ring when the lane is empty and
/// large enough, and permutes it in place otherwise.
/// Events pushed into the *current* bucket after its sort (re-armed timers
/// landing in the same day) go to a small `spill` min-heap.
///
/// FIFO lane: a busy check whose time is not before the last busy check
/// in the lane is appended to a ring instead of a bucket. In the
/// shared-busy model every check qualifies, because the shared busy end
/// never decreases; with per-node busy periods an earlier check falls back
/// to the buckets. The kernel keeps at most one check per node queued, so
/// the ring never holds more than n events. The day cursor never advances
/// past the lane head's day, so a push landing between the lane head and
/// the next bucketed event still lands at or after the cursor. In a
/// synchronized cluster every check has run before the members' re-armed
/// timers come due, so the ring is idle, and at least as large as the
/// cluster, exactly when the cluster's day is sorted.
///
/// peek serves the earliest of run head, spill top and lane head. Each
/// source is itself (time, seq)-ordered, so ordering is strictly
/// (time, seq) — identical to sim::EventQueue's FIFO-among-equal-times
/// contract.
class PmCalendarQueue {
public:
    /// `horizon_hint`: an upper estimate of how far ahead of `now` events
    /// get scheduled (e.g. max timer interval + N*Tc). The queue stays
    /// correct if the hint is wrong — outliers go through overflow — but
    /// accurate hints keep placement O(1).
    explicit PmCalendarQueue(double horizon_hint);

    // The push/peek/pop trio runs once per simulated event; defined
    // inline and forced inline (GCC's heuristics kept all three as calls
    // from the run loop) so the kernel's run loop compiles down to direct
    // bucket and cursor operations with no call.

    // Every push writes the entry's fields straight into its slot (the lane
    // slot, or the bucket's new last element): no Entry is built on the
    // stack and copied in.
    [[gnu::always_inline]] void push(double time, std::uint64_t seq,
                                     std::uint32_t kind, std::uint32_t node) {
        assert(day_of(time) >= day_ && "push into the past breaks the day cursor");
        ++live_;
        if ((kind & kPmKindMask) == kPmBusyCheck &&
            (lane_size_ == 0 || time >= lane_tail_)) {
            if (lane_size_ == lane_cap_) {
                grow_lane();
            }
            Entry& slot = lane_[(lane_head_ + lane_size_) & (lane_cap_ - 1)];
            slot.event.time = time;
            slot.event.kind = kind;
            slot.event.node = node;
            slot.seq = seq;
            ++lane_size_;
            lane_tail_ = time;
            return;
        }
        const std::int64_t d = day_of(time);
        if (d >= day_ + static_cast<std::int64_t>(bucket_count_)) {
            if (overflow_.empty() || d < overflow_min_day_) {
                overflow_min_day_ = d;
            }
            overflow_.emplace_back(time, seq, kind, node);
        } else {
            const std::size_t b = static_cast<std::size_t>(d) & bucket_mask_;
            if (cursor_sorted_ && b == cursor_b_) {
                // In-window pushes to the cursor index are always
                // cursor-day events (an aliasing day would be >= day_ + B,
                // i.e. overflow). The sorted run must not be disturbed, so
                // late arrivals heap into the spill. Re-armed timers
                // carry fresh (monotone) seqs at now+Tp-ish times, so the
                // typical sift terminates immediately.
                spill_.emplace_back(time, seq, kind, node);
                std::push_heap(spill_.begin(), spill_.end(), After{});
            } else {
                buckets_[b].emplace_back(time, seq, kind, node);
                occupied_[b >> 6] |= std::uint64_t{1} << (b & 63U);
            }
        }
    }

    /// The one-pass stale-check step, for the shared-busy model only. The
    /// lane's tail is a busy check just pushed, with seq `seq`, at the
    /// shared busy end `be` by a check that found the busy period
    /// extended. Every lane check that the queue would now serve next
    /// while it is strictly before `be` would find the same busy end and be
    /// re-queued at `be` in its turn, so this moves each of them, in order,
    /// from the lane head to the tail at `be`. It stops at the first that
    /// is at or after `be`, after `target` (the run's limit), or not
    /// strictly earlier than every event outside the lane: the cursor
    /// day's run head and spill top, the next occupied day and the
    /// overflow's min day. The moved checks share `seq`: every later push
    /// takes a larger one, so they keep the order of one-by-one re-pushes
    /// against every other event. Returns how many moved; `last` gets the
    /// time of the last one moved.
    std::size_t requeue_stale_checks(double be, double target, std::uint64_t seq,
                                     double& last);

    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return live_; }

    /// True when every queued event is strictly later than `t`, decided
    /// from the cursor day alone: run cursor, spill top and lane head. Any
    /// other event sits on a later day, so it is later than a `t` on the
    /// cursor day. Answers false whenever that state cannot decide: `t`
    /// past the cursor day, or a cursor bucket not yet sorted. It never
    /// moves the cursor; the caller's next pushes land at or after `t`.
    [[nodiscard]] bool all_later_than(double t) const noexcept {
        if (day_of(t) != day_) {
            return false;
        }
        const std::vector<Entry>& bucket = buckets_[cursor_b_];
        if (cursor_sorted_ ? cursor_pos_ < bucket.size() &&
                                 bucket[cursor_pos_].event.time <= t
                           : !bucket.empty()) {
            return false;
        }
        if (!spill_.empty() && spill_.front().event.time <= t) {
            return false;
        }
        return lane_size_ == 0 || lane_[lane_head_].event.time > t;
    }

    /// Locates the earliest event (by time, then seq) without removing
    /// it. Precondition: !empty(). Advances the internal day cursor over
    /// idle gaps as a side effect (monotone, so repeated peeks are cheap).
    [[nodiscard, gnu::always_inline]] const PmEvent& peek_min() {
        assert(live_ > 0);
        for (;;) {
            if (!overflow_.empty() &&
                overflow_min_day_ <
                    day_ + static_cast<std::int64_t>(bucket_count_)) {
                flush_overflow();
            }
            std::vector<Entry>& bucket = buckets_[cursor_b_];
            if (!cursor_sorted_ && !bucket.empty()) {
                sort_day(bucket);
                cursor_sorted_ = true;
                cursor_pos_ = 0;
            }
            const Entry* best = nullptr;
            if (cursor_sorted_ && cursor_pos_ < bucket.size()) {
                best = &bucket[cursor_pos_];
                peek_from_ = Source::Run;
            }
            if (!spill_.empty() && (best == nullptr || Before{}(spill_.front(), *best))) {
                best = &spill_.front();
                peek_from_ = Source::Spill;
            }
            if (lane_size_ > 0) {
                // Every lane event is on the cursor day or later, so with
                // nothing else left today the head is due exactly when it
                // is on the cursor day.
                const Entry& head = lane_[lane_head_];
                if (best != nullptr ? Before{}(head, *best)
                                    : day_of(head.event.time) == day_) {
                    peek_from_ = Source::Lane;
                    return head.event;
                }
            }
            if (best != nullptr) {
                return best->event;
            }
            advance_day();
        }
    }

    /// Removes the event peek_min() returned. Must follow a peek_min()
    /// with no intervening push.
    [[gnu::always_inline]] void pop_min() {
        --live_;
        if (peek_from_ == Source::Lane) {
            assert(lane_size_ > 0);
            lane_head_ = (lane_head_ + 1) & (lane_cap_ - 1);
            --lane_size_;
            return;
        }
        std::vector<Entry>& bucket = buckets_[cursor_b_];
        assert(cursor_sorted_ && "pop_min without a preceding peek_min");
        if (peek_from_ == Source::Spill) {
            assert(!spill_.empty());
            std::pop_heap(spill_.begin(), spill_.end(), After{});
            spill_.pop_back();
        } else {
            assert(cursor_pos_ < bucket.size());
            ++cursor_pos_;
        }
        if (cursor_pos_ >= bucket.size() && spill_.empty()) {
            // Day fully drained: release the run in one shot and return
            // the bucket to append-only mode for its next day.
            bucket.clear();
            if (bucket.capacity() > kPmBucketRetainEvents) {
                // A synchronized cluster drops its whole membership into
                // one day — a different ring slot every round, since the
                // cluster period is not a multiple of the horizon. Left
                // alone, each visited slot would keep that high-water
                // capacity and the queue would hold ~24*N bytes per slot
                // the cluster ever visited. Oversized runs come once per
                // cluster round, so re-growing one is noise next to the
                // sort that consumes it.
                std::vector<Entry>{}.swap(bucket);
            }
            occupied_[cursor_b_ >> 6] &=
                ~(std::uint64_t{1} << (cursor_b_ & 63U));
            cursor_sorted_ = false;
            cursor_pos_ = 0;
        }
    }

    /// Bytes retained by bucket/overflow/spill/lane storage and the day
    /// sort's slot tables (capacity, not size) — the queue's share of a
    /// kernel memory report.
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

private:
    /// A queued event and its push counter: buckets are filled out of
    /// push order (overflow folds, spills), so the calendar orders by the
    /// stored seq. 24 bytes.
    struct Entry {
        Entry() = default;
        /// Builds the entry in its slot (the pushes' emplace_back).
        Entry(double time, std::uint64_t s, std::uint32_t kind, std::uint32_t node) noexcept
            : event{time, kind, node}, seq{s} {}
        PmEvent event;
        std::uint64_t seq = 0;
    };

    /// Strict (time, seq) order, as a function object so std::sort and
    /// the std::*_heap calls inline it.
    struct Before {
        bool operator()(const Entry& a, const Entry& b) const noexcept {
            return a.event.time < b.event.time ||
                   (a.event.time == b.event.time && a.seq < b.seq);
        }
    };
    /// std::*_heap comparator for a MIN-heap on (time, seq).
    struct After {
        bool operator()(const Entry& a, const Entry& b) const noexcept {
            return Before{}(b, a);
        }
    };

    enum class Source : std::uint8_t { Run, Spill, Lane };

    void flush_overflow();
    void advance_day();
    /// The day of the first occupied bucket after the cursor's, looking
    /// at most `reach` buckets ahead; INT64_MAX when there is none.
    [[nodiscard]] std::int64_t next_occupied_day(std::size_t reach) const noexcept;
    void grow_lane();
    void sort_day(std::vector<Entry>& day);

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
    Source peek_from_ = Source::Run; ///< which source the last peek chose
    std::size_t cursor_pos_ = 0;     ///< next unconsumed index in the run
    std::vector<Entry> spill_;       ///< min-heap of post-sort same-day pushes
    /// The FIFO lane: a ring of lane_cap_ (a power of two, or 0) slots
    /// whose live window is lane_size_ events from lane_head_, in
    /// (time, seq) order. lane_tail_ is the newest lane event's time.
    /// lane_cap_ is lane_.size(), kept so that no ring index divides by
    /// the 24-byte entry size. sort_day borrows an empty ring as its buffer.
    std::vector<Entry> lane_;
    std::size_t lane_cap_ = 0;
    std::size_t lane_head_ = 0;
    std::size_t lane_size_ = 0;
    double lane_tail_ = 0.0;
    /// sort_day's slot tables: start offsets and fill cursors.
    std::vector<std::uint32_t> slot_start_;
    std::vector<std::uint32_t> slot_fill_;
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
    /// run_until reads both callbacks and both sinks when it starts (see
    /// plain_run()): one set or cleared from inside a run takes effect at
    /// the next run_until call.
    std::function<void(int node, sim::SimTime t)> on_transmit;
    /// Fires when a node completes its busy period and re-arms its timer,
    /// unless a tracker sink is set. Read when run_until starts, like
    /// on_transmit.
    std::function<void(int node, sim::SimTime t)> on_timer_set;
    /// Direct ClusterTracker feed for timer re-arms. When set it takes the
    /// place of `on_timer_set`: the re-arm site is hot enough that skipping
    /// the std::function hop is measurable. The plain loop feeds it too.
    void set_tracker_sink(ClusterTracker* tracker) noexcept { tracker_ = tracker; }
    /// Direct SyncMonitor feed, with no std::function hop: the general loop
    /// hands it every re-arm, after the tracker sink or `on_timer_set`,
    /// and every transmission start, before `on_transmit`. A set monitor
    /// sink keeps the run off the plain loop (plain_run() is false), whose
    /// per-event steps test no sink but the tracker's.
    void set_monitor_sink(obs::SyncMonitor* monitor) noexcept { monitor_ = monitor; }

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
    /// Events pushed onto the queue so far. A busy check the run loop
    /// serves inline is never pushed, and neither is a stale check that
    /// the one-pass step moves within the calendar's lane (busy_check), so
    /// this is events_processed() minus the inline and moved checks, plus
    /// whatever is still queued or was discarded.
    [[nodiscard]] std::uint64_t queue_pushes() const noexcept { return next_seq_; }
    [[nodiscard]] sim::SimTime round_length() const noexcept;
    [[nodiscard]] NodeView node(int i) const;

    /// True when every node shares one busy-until scalar (Immediate
    /// notification, uniform Tc) — the O(1)-per-transmission fast variant.
    [[nodiscard]] bool shared_busy() const noexcept { return shared_busy_; }
    /// True when the events live in a PmCalendarQueue (n >=
    /// kPmCalendarMinNodes), false for a PmSortedRunQueue.
    [[nodiscard]] bool calendar_queue() const noexcept { return calendar_ != nullptr; }
    /// True when a run_until call made now runs the plain loop: the
    /// paper's default model (shared busy period, re-arm after it ends,
    /// UniformJitter with no per-node Tp) with nothing watching single
    /// events — no tracer, no on_transmit, no monitor sink, re-arms that
    /// feed at most the tracker sink, no profiler installed and no
    /// scheduled hook pending.
    /// Both loops produce the same run; the plain one tests none of these
    /// per event.
    [[nodiscard]] bool plain_run() const noexcept;

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
    // The per-event steps. pm_kernel.cpp compiles the ones a timer fire and
    // its busy check run into run_loop, so an isolated transmission makes
    // no out-of-line call. `Plain` is the run_loop instantiation's shape
    // (plain_run()); a step that pushes takes the loop's queue.
    template <typename Queue>
    void push_event(Queue& queue, sim::SimTime at, std::uint32_t kind,
                    std::uint32_t node);
    template <bool Plain>
    [[nodiscard]] sim::SimTime draw_interval(int i);
    template <bool Plain, typename Queue>
    void schedule_timer(Queue& queue, int i, sim::SimTime at);
    template <bool Plain, typename Queue>
    void timer_set(Queue& queue, int i);
    template <typename Queue>
    void trigger_node(Queue& queue, int i);
    /// The timer-fire step; returns begin_transmission's answer.
    template <bool Plain, typename Queue>
    [[nodiscard]] bool timer_expired(Queue& queue, int i);
    /// Starts node i's transmission at now(). Returns true when the node
    /// now owes a busy check at busy_end(i) that the caller queues or runs:
    /// under Immediate notification the check is the transmission's last
    /// push. Under AfterPreparation it queues the check itself, ahead of
    /// the delivery event, and returns false.
    template <bool Plain, typename Queue>
    [[nodiscard]] bool begin_transmission(Queue& queue, int i);
    void deliver_from(int i);
    /// The busy-check step at now(). `target_sec` is the run's limit,
    /// which the calendar's one-pass stale-check step may not pass.
    template <bool Plain, typename Queue>
    void busy_check(Queue& queue, int i, double target_sec);
    template <bool Plain>
    void extend_busy(int i, sim::SimTime t);
    template <bool Plain = false>
    [[nodiscard]] sim::SimTime busy_end(int i) const noexcept {
        return (Plain || shared_busy_) ? shared_busy_end_
                                       : busy_end_[static_cast<std::size_t>(i)];
    }
    /// Calls `fn` with the kernel's queue as its concrete type.
    template <typename Fn>
    void with_queue(Fn&& fn);
    template <bool Plain, typename Queue>
    void run_loop(Queue& queue, sim::SimTime target);

    ModelParams params_;
    std::unique_ptr<TimerPolicy> policy_;
    obs::Tracer* tracer_ = nullptr;
    ClusterTracker* tracker_ = nullptr;
    obs::SyncMonitor* monitor_ = nullptr;
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

    /// The queue's push counter: the seq of the next push. Queued events
    /// keep the engine queue's relative order; an inline busy check takes
    /// no seq, and a moved stale check shares the seq of the check
    /// re-pushed just before it (see queue_pushes()).
    std::uint64_t next_seq_ = 0;
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
    /// A profiler was installed when run_until started: the general loop
    /// records the pm.timer_fire and pm.begin_transmission scopes.
    bool profiled_ = false;
};

} // namespace routesync::core
