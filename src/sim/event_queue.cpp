#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace routesync::sim {

std::uint32_t EventQueue::acquire_slot() {
    if (!free_slots_.empty()) {
        const std::uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        slots_[slot].state = SlotState::Live;
        slots_[slot].next = kNoChain;
        return slot;
    }
    if (slots_.size() > kSlotMask) {
        throw std::length_error{"EventQueue: too many pending events"};
    }
    slots_.push_back(Slot{});
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) noexcept {
    // Bumping the generation invalidates every outstanding handle to the
    // slot before it is recycled. (On cancel the generation was already
    // bumped; the extra bump here is still correct and keeps release
    // unconditional.)
    Slot& s = slots_[slot];
    ++s.gen;
    s.callback = nullptr;
    // A recycled slot must never be appended to: close any chain whose
    // tail this was.
    if (ways_[0].tail == slot) {
        ways_[0].tail = kNoChain;
    }
    if (ways_[1].tail == slot) {
        ways_[1].tail = kNoChain;
    }
    free_slots_.push_back(slot);
}

void EventQueue::sift_up(std::size_t i) noexcept {
    Entry* const heap = heap_.data();
    const Entry e = heap[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (e >= heap[parent]) {
            break;
        }
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = e;
}

void EventQueue::sift_down(std::size_t i) noexcept {
    Entry* const heap = heap_.data();
    const Entry e = heap[i];
    const std::size_t n = heap_.size();
    for (;;) {
        const std::size_t first = i * kArity + 1;
        if (first >= n) {
            break;
        }
        std::size_t best = first;
        const std::size_t last = std::min(first + kArity, n);
        if (last - first == kArity) {
            // Full group (the common case): a pairwise min-tree. The
            // 128-bit integer compares are branchless, so these selects
            // compile to cmovs instead of unpredictable branches.
            const std::size_t b01 =
                heap[first + 1] < heap[first] ? first + 1 : first;
            const std::size_t b23 =
                heap[first + 3] < heap[first + 2] ? first + 3 : first + 2;
            best = heap[b23] < heap[b01] ? b23 : b01;
        } else {
            for (std::size_t c = first + 1; c < last; ++c) {
                if (heap[c] < heap[best]) {
                    best = c;
                }
            }
        }
        if (heap[best] >= e) {
            break;
        }
        heap[i] = heap[best];
        i = best;
    }
    heap[i] = e;
}

void EventQueue::drop_root() noexcept {
    // Bottom-up deletion (Wegener): the replacement element comes from
    // the heap's last position — a leaf, so it almost always belongs back
    // near the leaves. Walk the hole down the min-child path without
    // comparing against the replacement (saving a compare per level),
    // then sift the replacement up from the bottom (O(1) expected).
    const Entry back = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) {
        return;
    }
    Entry* const heap = heap_.data();
    std::size_t hole = 0;
    for (;;) {
        const std::size_t first = hole * kArity + 1;
        if (first >= n) {
            break;
        }
        std::size_t best = first;
        const std::size_t last = std::min(first + kArity, n);
        if (last - first == kArity) {
            // The walk is cache-miss bound on deep heaps: each level lands
            // on a fresh line. Start the grandchild loads now, while this
            // level's compares run — whichever child wins, its children
            // are already in flight.
            const std::size_t grand = first * kArity + 1;
            if (grand + 3 * kArity < n) {
                __builtin_prefetch(&heap[grand]);
                __builtin_prefetch(&heap[grand + kArity]);
                __builtin_prefetch(&heap[grand + 2 * kArity]);
                __builtin_prefetch(&heap[grand + 3 * kArity]);
            }
            const std::size_t b01 =
                heap[first + 1] < heap[first] ? first + 1 : first;
            const std::size_t b23 =
                heap[first + 3] < heap[first + 2] ? first + 3 : first + 2;
            best = heap[b23] < heap[b01] ? b23 : b01;
        } else {
            for (std::size_t c = first + 1; c < last; ++c) {
                if (heap[c] < heap[best]) {
                    best = c;
                }
            }
        }
        heap[hole] = heap[best];
        hole = best;
    }
    heap[hole] = back;
    sift_up(hole);
}

void EventQueue::materialize_chains() {
    if (has_hold()) {
        heap_.push_back(hold_);
        hold_ = kNoHold;
    }
    const std::size_t n = heap_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Entry time = heap_[i] >> 64 << 64;
        std::uint32_t s = slot_of(heap_[i]);
        std::uint32_t next = slots_[s].next;
        slots_[s].next = kNoChain;
        while (next != kNoChain) {
            heap_.push_back((time | (Entry{slots_[next].seq} << kSlotBits)) |
                            next);
            s = next;
            next = slots_[s].next;
            slots_[s].next = kNoChain;
        }
    }
    ways_[0] = ChainWay{};
    ways_[1] = ChainWay{};
}

void EventQueue::renumber() {
    // A key-sorted array is a valid d-ary min-heap, so rebuild by
    // sorting: relative order (and thus FIFO among equal times) is
    // preserved, and fresh dense seqs leave room for another 2^42 pushes.
    materialize_chains();
    std::sort(heap_.begin(), heap_.end());
    std::uint64_t seq = 1;
    for (Entry& e : heap_) {
        const Entry time_and_slot =
            (e >> 64 << 64) | (static_cast<std::uint64_t>(e) & kSlotMask);
        slots_[slot_of(e)].seq = seq;
        e = time_and_slot | (Entry{seq++} << kSlotBits);
    }
    next_seq_ = seq;
}

EventHandle EventQueue::push(SimTime t, Callback cb) {
    if (!cb) {
        throw std::invalid_argument{"EventQueue::push: empty callback"};
    }
    if (next_seq_ > kMaxSeq) {
        renumber();
    }
    const std::uint64_t tb = time_bits(t);
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.callback = std::move(cb);
    s.seq = next_seq_++;
    ++live_;
    // Duplicate-time chaining: append to an open chain for this
    // timestamp instead of growing the heap (file comment).
    for (std::uint8_t w = 0; w < 2; ++w) {
        ChainWay& way = ways_[w];
        if (way.tail != kNoChain && way.time_bits == tb) {
            slots_[way.tail].next = slot;
            way.tail = slot;
            way_mru_ = w;
            return make_handle(slot, s.gen);
        }
    }
    const Entry e = (Entry{tb} << 64) | (s.seq << kSlotBits) | slot;
    // An empty hold compares above every entry, so the first test fails
    // only when an earlier entry is held.
    if (e < hold_ && (has_hold() || heap_.empty() || e < heap_.front())) {
        // Earlier than everything queued: the entry takes the hold, and
        // the entry it displaces joins the heap (file comment).
        if (has_hold()) {
            heap_.push_back(hold_);
            sift_up(heap_.size() - 1);
        }
        hold_ = e;
    } else {
        heap_.push_back(e);
        sift_up(heap_.size() - 1);
    }
    // This entry opens a chain for its timestamp, evicting the
    // least-recently-used way.
    way_mru_ = static_cast<std::uint8_t>(1 - way_mru_);
    ways_[way_mru_] = ChainWay{tb, slot};
    return make_handle(slot, s.gen);
}

bool EventQueue::cancel(EventHandle h) {
    const auto slot = static_cast<std::uint32_t>(h.id >> 32);
    const auto gen = static_cast<std::uint32_t>(h.id & 0xffffffffU);
    if (slot >= slots_.size()) {
        return false; // bogus handle
    }
    Slot& s = slots_[slot];
    if (s.state != SlotState::Live || s.gen != gen) {
        return false; // already fired, already cancelled, or stale handle
    }
    s.state = SlotState::Cancelled;
    ++s.gen;              // invalidate the handle immediately
    s.callback = nullptr; // release captured resources now, not at reclaim
    --live_;
    ++tombstones_;
    const std::size_t entries = live_ + tombstones_;
    if (tombstones_ > entries / 2 && entries >= kCompactMinHeap) {
        compact();
    }
    return true;
}

void EventQueue::compact() {
    // Chained entries are invisible to the heap filter below; expand
    // them first so one pass reclaims every tombstone.
    materialize_chains();
    const auto cancelled = [this](Entry e) {
        return slots_[slot_of(e)].state == SlotState::Cancelled;
    };
    for (const Entry e : heap_) {
        if (cancelled(e)) {
            release_slot(slot_of(e));
        }
    }
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(), cancelled), heap_.end());
    // Floyd heapify: sift every internal node down, deepest first.
    if (heap_.size() > 1) {
        for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
            sift_down(i);
        }
    }
    tombstones_ = 0;
}

inline void EventQueue::skip_cancelled() {
    // tombstones_ counts every cancelled entry still queued, so a queue
    // without any skips the slot lookup.
    while (tombstones_ > 0) {
        Entry& min = min_entry();
        const std::uint32_t slot = slot_of(min);
        if (slots_[slot].state != SlotState::Cancelled) {
            return;
        }
        const std::uint32_t next = slots_[slot].next;
        release_slot(slot);
        remove_min(min, next);
        --tombstones_;
    }
}

inline EventQueue::Popped EventQueue::take_min(Entry& min) {
    const std::uint32_t slot = slot_of(min);
    Popped out{entry_time(min), std::move(slots_[slot].callback)};
    const std::uint32_t next = slots_[slot].next;
    release_slot(slot);
    // O(1) when the entry is the hold or has a chain successor.
    remove_min(min, next);
    --live_;
    return out;
}

SimTime EventQueue::next_time() {
    skip_cancelled();
    assert(!empty() && "next_time() on empty queue");
    return entry_time(min_entry());
}

EventQueue::Popped EventQueue::pop() {
    skip_cancelled();
    assert(!empty() && "pop() on empty queue");
    return take_min(min_entry());
}

EventQueue::Popped EventQueue::pop_until(SimTime limit) {
    if (live_ == 0) {
        return {};
    }
    skip_cancelled();
    Entry& min = min_entry();
    if (static_cast<std::uint64_t>(min >> 64) > time_bits(limit)) {
        return {};
    }
    return take_min(min);
}

} // namespace routesync::sim
