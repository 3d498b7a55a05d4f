// A cancellable priority queue of timestamped events.
//
// Ordering: strictly by time, then by insertion order (FIFO among equal
// timestamps). The FIFO tie-break matters: the Periodic Messages model
// produces many events at *identical* times (cluster members share
// busy-period arithmetic), and deterministic ordering keeps whole
// simulations bit-reproducible.
//
// Hot-path design (this is the innermost loop of every simulation):
//
//   * Callbacks are `SmallCallback` — small-buffer-optimized and
//     move-only — so the common schedule/fire cycle performs no heap
//     allocation (std::function would allocate for almost every
//     simulation capture).
//   * Callbacks live in a slot table, not in the heap. A heap entry is a
//     single 128-bit key packing {time, seq, slot}: the timestamp is
//     mapped through the order-preserving IEEE-754 bits transform, so
//     the entire (time, FIFO) ordering is ONE unsigned integer compare.
//     Heap comparisons on effectively-random keys mispredict ~50% as
//     float/branch pairs; as integer compares they compile to
//     cmp/sbb/cmov with no branch at all, and the O(log n) sift moves
//     copy 16 trivial bytes instead of relocating a callback object.
//   * The heap is 4-ary: half the levels of a binary heap, and each
//     level's children are adjacent in memory, which is where a
//     16k-entry queue actually spends its time.
//   * Handles are generation-counted slots, not hash-set membership.
//     A handle packs {slot index, generation}; cancel() is a bounds
//     check plus a generation compare — O(1), no hashing — and push/pop
//     touch no associative container at all. Cancel destroys the
//     callback immediately, so captured resources are not held hostage
//     by the tombstone.
//   * Cancellation is lazy: a cancelled entry stays in the heap as a
//     tombstone and is dropped when it surfaces at the top. Its slot is
//     only reclaimed at that point (the heap entry still references it).
//
// Tombstone compaction policy: lazily-cancelled entries are dead weight
// that a cancel-heavy workload (e.g. timers that are almost always
// rescheduled before firing) can grow without bound, because a tombstone
// buried deep in the heap is only reclaimed when it reaches the top. To
// bound that growth, whenever the number of tombstones exceeds half the
// heap (and the heap is large enough for it to matter — kCompactMinHeap),
// the queue compacts: it filters out every cancelled entry, frees their
// slots, and rebuilds the heap in O(n). Since each compaction removes at
// least half the heap, the amortized cost per cancel stays O(1), and live
// memory is always O(live events).
//
// Duplicate-time chaining: the workloads this repo simulates are about
// synchronization, so the queue's steady state is *bursts of equal
// timestamps* — a cluster of routers firing together, a link draining a
// backlog in zero serialization time, a LAN delivering one frame to
// every station at the same instant. Pushing k equal-time events as k
// heap entries costs k log n on the way out. Instead, the queue keeps a
// tiny (2-way) cache of {timestamp -> chain tail}: a push whose
// timestamp matches a cached chain appends to it in O(1) — linked
// through the slot table, no heap entry at all — and popping a chained
// event replaces the root's key with the next chain member in place,
// also O(1). This is exactly FIFO-correct because, while a chain for
// time T is cached, *every* push at T joins it: chain members' sequence
// numbers are therefore totally ordered against every other entry at T,
// and the advanced root is still the global minimum (no sift needed).
// Entries at T left over from an evicted chain all carry smaller
// sequence numbers and surface first through the normal heap path.
//
// Hold slot: in a discrete-event simulation most events are scheduled
// a moment ahead and are the very next one served — a CSMA/CD station
// seizing the channel, a frame's transmission-done, a propagation
// delay. Each such event would pay a sift on push and a sift on pop for
// nothing. So the queue keeps its minimum entry outside the heap, in a
// one-entry hold: a push earlier than every queued entry takes the hold
// (the entry it displaces, if any, goes into the heap), and a pop serves
// the hold without touching the heap. While the hold is occupied it is
// the minimum; when it is empty the heap root is. The hold is one more
// place an entry can sit, seen by everything that walks entries: it can
// open a duplicate-time chain (popping it then advances the hold in
// place, as for the heap root), a cancelled hold is a tombstone like any
// other, next_time_bound() reads it, and compact()/renumber() move it
// into the heap first (materialize_chains). Entries leave in exactly
// the order they would without the hold. (PmSortedRunQueue keeps a
// one-event hold too, for the newest push.)
//
// Capacity limits: at most 2^22 - 1 (≈4.2M) events may be pending at
// once (push throws std::length_error beyond). The packed sequence
// counter holds 2^42 pushes; when it saturates, push renumbers all
// pending entries in order (an O(n log n) slow path hit once every
// ~4.4e12 pushes), so FIFO semantics never degrade.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace routesync::sim {

/// Opaque handle identifying a scheduled event; valid until the event
/// fires or is cancelled. The id packs {slot, generation} so a stale
/// handle (fired, cancelled, or from a recycled slot) never aliases a
/// newer event.
struct EventHandle {
    std::uint64_t id = 0;

    friend bool operator==(EventHandle, EventHandle) = default;
};

/// One self-describing reading of the queue's occupancy — what the
/// ResourceSampler and tests read.
struct EventQueueStats {
    std::size_t live = 0;        ///< pending, non-cancelled events
    std::size_t tombstones = 0;  ///< cancelled entries still queued
    std::size_t heap_entries = 0; ///< live + tombstones
};

class EventQueue {
public:
    using Callback = SmallCallback;

    /// Schedules `cb` at time `t`. Events at equal times fire in push order.
    EventHandle push(SimTime t, Callback cb);

    /// Cancels a pending event. Returns false if the event already fired,
    /// was already cancelled, or the handle is unknown. O(1).
    bool cancel(EventHandle h);

    /// True when no live (non-cancelled) events remain.
    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

    /// Number of live events.
    [[nodiscard]] std::size_t size() const noexcept { return live_; }

    /// Entries currently held (live + not-yet-reclaimed tombstones,
    /// whether they sit in the hold, the heap proper or on a
    /// duplicate-time chain). Exposed so tests can observe the
    /// compaction policy.
    [[nodiscard]] std::size_t heap_entries() const noexcept {
        return live_ + tombstones_;
    }

    /// Cancelled entries still queued (hold, heap or chain).
    [[nodiscard]] std::size_t tombstones() const noexcept { return tombstones_; }

    [[nodiscard]] EventQueueStats stats() const noexcept {
        return EventQueueStats{live_, tombstones_, live_ + tombstones_};
    }

    /// Timestamp of the earliest live event. Precondition: !empty().
    [[nodiscard]] SimTime next_time();

    /// O(1) lower bound on next_time(): the minimum entry's timestamp,
    /// tombstones included (a cancelled minimum can make this earlier
    /// than next_time(), never later). Precondition: !empty().
    [[nodiscard]] SimTime next_time_bound() const noexcept {
        return entry_time(has_hold() ? hold_ : heap_.front());
    }

    /// Removes and returns the earliest live event. Precondition: !empty().
    struct Popped {
        SimTime time;
        Callback callback;
    };
    Popped pop();

    /// Removes and returns the earliest live event if its time is
    /// <= `limit`. Otherwise — nothing live, or the earliest live event
    /// is later — returns an empty callback and leaves every live event
    /// queued. One call does what `!empty() && next_time() <= limit`
    /// followed by pop() does, skipping tombstones once.
    Popped pop_until(SimTime limit);

private:
    static constexpr std::size_t kArity = 4;
    /// Compaction threshold: heaps smaller than this are never compacted
    /// (the tombstone overhead is bounded by the constant anyway).
    static constexpr std::size_t kCompactMinHeap = 64;
    /// The low 64 bits of an entry pack {seq : 42, slot : 22}. Seq lives
    /// above slot so low-word order among equal times is FIFO push order.
    static constexpr std::uint64_t kSlotBits = 22;
    static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
    static constexpr std::uint64_t kMaxSeq =
        (std::uint64_t{1} << (64 - kSlotBits)) - 1;

    // 128-bit heap key: {time_bits : 64 | seq : 42 | slot : 22}.
    // (__int128 is a GNU extension, but this repo already requires
    // GCC/Clang; __extension__ silences -Wpedantic.)
    __extension__ using Entry = unsigned __int128;

    /// Maps a double to a uint64 whose unsigned order equals the double's
    /// numeric order (the standard IEEE-754 total-order transform:
    /// non-negatives get the sign bit set, negatives are bit-inverted).
    /// -0.0 is normalized to +0.0 first so equal times stay FIFO.
    static std::uint64_t time_bits(SimTime t) noexcept {
        double s = t.sec();
        if (s == 0.0) {
            s = 0.0; // collapse -0.0
        }
        const auto u = std::bit_cast<std::uint64_t>(s);
        constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
        return (u & kSign) ? ~u : (u | kSign);
    }
    static SimTime entry_time(Entry e) noexcept {
        constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
        const auto k = static_cast<std::uint64_t>(e >> 64);
        const std::uint64_t u = (k & kSign) ? (k ^ kSign) : ~k;
        return SimTime::seconds(std::bit_cast<double>(u));
    }
    static std::uint32_t slot_of(Entry e) noexcept {
        return static_cast<std::uint32_t>(static_cast<std::uint64_t>(e) & kSlotMask);
    }

    /// Chain-link sentinel: this slot is the last of its chain (or not
    /// chained at all).
    static constexpr std::uint32_t kNoChain = 0xffffffffU;

    /// The empty hold: above every real entry (its time bits would be a
    /// NaN), so `e < hold_` holds for any entry while the hold is empty.
    static constexpr Entry kNoHold = ~Entry{0};

    enum class SlotState : std::uint8_t { Live, Cancelled };
    struct Slot {
        Callback callback;
        std::uint64_t seq = 0;          // full sequence number, so a chained
                                        // entry's heap key is reconstructible
        std::uint32_t gen = 1; // bumped when the event fires or is cancelled
        std::uint32_t next = kNoChain;  // next member of a duplicate-time chain
        SlotState state = SlotState::Live;
    };

    /// One way of the duplicate-time cache: the tail of an open chain
    /// for `time_bits`. `tail == kNoChain` marks the way invalid.
    struct ChainWay {
        std::uint64_t time_bits = 0;
        std::uint32_t tail = kNoChain;
    };

    static EventHandle make_handle(std::uint32_t slot, std::uint32_t gen) noexcept {
        return EventHandle{(static_cast<std::uint64_t>(slot) << 32) | gen};
    }

    [[nodiscard]] std::uint32_t acquire_slot();
    void release_slot(std::uint32_t slot) noexcept;

    void sift_up(std::size_t i) noexcept;
    void sift_down(std::size_t i) noexcept;
    /// Removes the heap root (entry only; the slot is the caller's
    /// problem).
    void drop_root() noexcept;

    [[nodiscard]] bool has_hold() const noexcept { return hold_ != kNoHold; }

    /// The minimum entry: the hold when occupied, else the heap root.
    /// Precondition: an entry is queued (live or tombstone).
    [[nodiscard]] Entry& min_entry() noexcept {
        return has_hold() ? hold_ : heap_.front();
    }

    /// Removes the minimum entry, whose slot the caller has released:
    /// its chain's next member takes its place in the hold or at the
    /// root, else the hold empties or the root is dropped.
    void remove_min(Entry& min, std::uint32_t next) noexcept {
        if (next != kNoChain) {
            advance_chain(min, next);
        } else if (&min == &hold_) {
            hold_ = kNoHold;
        } else {
            drop_root();
        }
    }

    /// Drops cancelled entries from the front of the queue. This and
    /// take_min() are forced inline into pop(), next_time() and
    /// pop_until(), so the engine's one queue call per event does not
    /// call out again to skip or to take.
    [[gnu::always_inline]] void skip_cancelled();

    /// Removes the minimum entry, which is live, and returns its event.
    [[gnu::always_inline]] Popped take_min(Entry& min);

    /// Replaces a minimum entry's key in place with chain member `next`
    /// (same time, that member's seq). See the chaining invariant in the
    /// file comment for why it stays the minimum.
    void advance_chain(Entry& min, std::uint32_t next) noexcept {
        min = (min >> 64 << 64) | (Entry{slots_[next].seq} << kSlotBits) | next;
    }

    /// Moves the hold into the heap, expands every duplicate-time chain
    /// into explicit heap entries and invalidates the cache. Leaves heap_
    /// UNORDERED — callers (compact, renumber) rebuild it.
    void materialize_chains();

    /// Rebuilds the heap without its tombstones (see policy above).
    void compact();

    /// Reassigns dense sequence numbers to all pending entries, keeping
    /// their relative order. Slow path, hit once per 2^42 pushes.
    void renumber();

    Entry hold_ = kNoHold;    // the minimum entry, outside the heap
    std::vector<Entry> heap_; // 4-ary min-heap over the 128-bit key
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    ChainWay ways_[2]; // duplicate-time cache (see file comment)
    std::uint8_t way_mru_ = 0;
    std::uint64_t next_seq_ = 1;
    std::size_t live_ = 0;
    std::size_t tombstones_ = 0; // cancelled entries, hold, heap or chained

    /// Tests reach the hold and the sequence counter (renumber() needs
    /// 2^42 pushes otherwise) through this.
    friend struct EventQueueTestPeer;
};

} // namespace routesync::sim
