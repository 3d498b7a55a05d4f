// Cluster bookkeeping over a Periodic Messages run.
//
// A *cluster* is a set of nodes that re-arm ("set") their routing timers at
// the same instant — in the model, members of a cluster share busy-period
// arithmetic, so their timer-set times are exactly equal. The tracker
// groups timer-set events whose times fall within a small tolerance and
// derives from the groups everything the paper's figures need:
//
//   * the per-round largest cluster (Figures 6-8's "cluster graph"),
//   * first-hit times for each cluster size going up (Figure 10) and
//     coming down (Figure 11),
//   * the time of full synchronization (all N in one cluster),
//   * the fraction of rounds spent (un)synchronized (Figures 14-15's
//     simulated counterpart),
//   * the group sizes of the last closed round, from which a SyncMonitor
//     settles its cluster entropy — the tracker is the only code that
//     turns re-arms into clusters and rounds.
//
// Metro-scale layout: every per-size table is a flat 8-byte-per-entry
// array — hitting times use an infinity sentinel instead of
// std::optional<SimTime> (16 B/entry and a non-trivial assign loop), and
// the "rounds with largest <= s" table is maintained as a histogram
// increment per closed round (O(1)) with the cumulative form materialized
// once in finish(), not as an O(N) per-round suffix update. At N = 10^6
// the tracker's fixed state is 24 B/node and a closed round costs O(1)
// amortized.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "sim/time.hpp"

namespace routesync::core {

/// A maximal set of simultaneous timer-set events.
struct ClusterEvent {
    sim::SimTime time; ///< when the cluster's members set their timers
    int size;
};

/// Largest cluster observed during one round. A round is N consecutive
/// timer-set events — the paper's "round of N routing messages" — so the
/// bookkeeping tracks the system's own cycle rather than wall-clock
/// buckets (a synchronized cluster's cycle is longer than Tp + Tc and
/// would straddle fixed buckets).
struct RoundLargest {
    std::uint64_t round;
    int largest;
    sim::SimTime end_time; ///< time of the round's last timer-set event
};

class ClusterTracker {
public:
    /// Above this node count, per-round record storage defaults OFF: a
    /// metro-scale run (N = 10^5..10^6) would otherwise grow an unbounded
    /// RoundLargest vector nobody asked for. record_rounds(true) still
    /// enables it explicitly at any N.
    static constexpr int kAutoRecordRoundsMaxN = 4096;

    /// `n` — node count; `round_length` — Tp + Tc (phase-space modulus);
    /// `tolerance` — max spacing between timer-set events in one cluster.
    ClusterTracker(int n, sim::SimTime round_length,
                   sim::SimTime tolerance = sim::SimTime::micros(1.0));

    /// Reconfigures the tracker for a fresh run without releasing its
    /// scratch buffers: the event/round vectors keep their capacity and
    /// the per-size arrays are overwritten in place, so a pooled tracker
    /// (e.g. one per worker thread, reused across trials) costs no
    /// allocations after warm-up. Same validation as the constructor;
    /// callbacks and record flags revert to their defaults. A reset
    /// tracker is indistinguishable from a freshly constructed one.
    void reset(int n, sim::SimTime round_length,
               sim::SimTime tolerance = sim::SimTime::micros(1.0));

    /// Feed: call for every timer-set event, in nondecreasing time order.
    /// Forced inline, with finalize_group, so a simulation core's re-arm
    /// step compiles it in rather than calling it once per re-arm.
    [[gnu::always_inline]] void on_timer_set(int /*node*/, sim::SimTime t) {
        assert(!finished_ && "tracker already finished");
        if (group_open_ && t < group_last_) {
            throw_out_of_order();
        }
        if (group_open_ && t - group_last_ <= tolerance_) {
            ++group_size_;
            group_last_ = t;
        } else {
            if (group_open_) {
                finalize_group();
            }
            group_open_ = true;
            group_start_ = t;
            group_last_ = t;
            group_size_ = 1;
            group_round_ = event_round_;
        }
        group_last_round_ = event_round_;
        ++events_seen_;
        if (++idx_in_round_ == n_) {
            idx_in_round_ = 0;
            ++event_round_;
        }

        // Record the earliest time each cluster size was *reached*, live,
        // so a run can be stopped the instant full synchronization occurs.
        // Groups grow one event at a time, so first_up_ is filled for
        // exactly the sizes up to max_size_seen_ — one int compare
        // replaces the optional load on the hot path.
        if (group_size_ > max_size_seen_) {
            max_size_seen_ = group_size_;
            first_up_[static_cast<std::size_t>(group_size_)] = group_start_;
            if (on_size_first_reached) {
                on_size_first_reached(group_size_, group_start_);
            }
            if (group_size_ == n_ && on_full_sync) {
                on_full_sync(group_start_);
            }
        }
    }

    /// Flushes the final group and closes the last round. Call once after
    /// the simulation stops; the tracker then becomes read-only.
    void finish();

    /// Invoked the moment the current group reaches size n (full
    /// synchronization) — before finish(); use it to stop the engine early.
    std::function<void(sim::SimTime)> on_full_sync;
    /// Invoked the first time each cluster size is reached (size, time).
    std::function<void(int, sim::SimTime)> on_size_first_reached;
    /// Invoked when a round closes with its largest cluster size.
    std::function<void(const RoundLargest&)> on_round_closed;

    /// Enables storage of every cluster event (off by default: a 10^7 s run
    /// produces millions of events).
    void record_events(bool on) noexcept { set_record(kRecordEvents, on); }
    /// Enables keeping the group sizes of the last closed round (off by
    /// default) — what a SyncMonitor settles its round readings from.
    void record_round_sizes(bool on) noexcept { set_record(kRecordRoundSizes, on); }
    /// Enables storage of per-round largest-cluster records (default: on
    /// for n <= kAutoRecordRoundsMaxN, off above — see the constant).
    void record_rounds(bool on) noexcept { record_rounds_ = on; }

    [[nodiscard]] const std::vector<ClusterEvent>& events() const noexcept {
        return events_;
    }
    [[nodiscard]] const std::vector<RoundLargest>& rounds() const noexcept {
        return rounds_;
    }
    /// Group sizes of the last closed round in the order the groups
    /// closed, a group that straddled in from the round before first.
    /// Empty unless record_round_sizes(true) and a round has closed.
    [[nodiscard]] std::span<const int> last_round_sizes() const noexcept {
        return last_round_sizes_;
    }

    /// First time a cluster of size >= s was observed (s in [1, n]).
    [[nodiscard]] std::optional<sim::SimTime> first_time_size_at_least(int s) const;
    /// End-time of the first closed round whose largest cluster was <= s.
    [[nodiscard]] std::optional<sim::SimTime> first_round_largest_at_most(int s) const;
    /// Time of full synchronization, if reached.
    [[nodiscard]] std::optional<sim::SimTime> full_sync_time() const {
        return first_time_size_at_least(n_);
    }

    /// Closed rounds whose largest cluster was <= s, and total closed
    /// rounds — the simulated "fraction of time unsynchronized".
    [[nodiscard]] std::uint64_t rounds_with_largest_at_most(int s) const;
    [[nodiscard]] std::uint64_t rounds_closed() const noexcept { return rounds_closed_; }

    [[nodiscard]] int n() const noexcept { return n_; }

    /// Bytes held by the per-size tables and record vectors (capacity, not
    /// size) — the number a metro-scale memory budget needs.
    [[nodiscard]] std::size_t state_bytes() const noexcept;

private:
    [[gnu::always_inline]] void finalize_group() {
        const std::uint64_t round = group_round_;
        if (round > current_round_) {
            close_current_round();
            current_round_ = round;
            // A group that straddled the boundary counts towards this
            // round too.
            current_round_largest_ = spill_largest_;
            spill_largest_ = 0;
        }

        if (record_ != 0) {
            record_group();
        }
        if (group_size_ > current_round_largest_) {
            current_round_largest_ = group_size_;
        }
        if (group_last_round_ > round && group_size_ > spill_largest_) {
            spill_largest_ = group_size_;
        }
        round_end_time_ = group_last_;
        group_open_ = false;
        group_size_ = 0;
    }
    void close_current_round();
    /// Stores the closing group as record_ asks. Out of line: a run that
    /// records nothing pays one test per group.
    void record_group();
    void set_record(unsigned bit, bool on) noexcept {
        record_ = on ? (record_ | bit) : (record_ & ~bit);
    }
    /// Throws the std::logic_error for a timer-set event earlier than the
    /// open group's last; out of line, off the feed's hot path.
    [[noreturn]] static void throw_out_of_order();

    int n_;
    sim::SimTime round_length_;
    sim::SimTime tolerance_;

    // Current group of simultaneous timer-set events.
    bool group_open_ = false;
    sim::SimTime group_start_ = sim::SimTime::zero();
    sim::SimTime group_last_ = sim::SimTime::zero();
    int group_size_ = 0;
    std::uint64_t group_round_ = 0;      ///< round of the group's first event
    std::uint64_t group_last_round_ = 0; ///< round of the group's last event

    // Current round accumulator (rounds are N events long). The event
    // round is carried as a running counter (idx_in_round_ wraps at n_)
    // instead of dividing event ordinals by n_ — finalize_group() runs
    // once per group and the two divisions dominated its profile.
    std::uint64_t events_seen_ = 0;
    std::uint64_t event_round_ = 0; ///< events_seen_ / n_, maintained
    int idx_in_round_ = 0;          ///< events_seen_ % n_, maintained
    std::uint64_t current_round_ = 0;
    int current_round_largest_ = 0;
    int spill_largest_ = 0; ///< size of a group straddling into the next round
    int max_size_seen_ = 0; ///< largest group size so far: first_up_[s]
                            ///< has a value exactly for s <= this
    int down_filled_from_ = 0; ///< first_down_[s] has a value for s >= this
    sim::SimTime round_end_time_ = sim::SimTime::zero();

    static constexpr unsigned kRecordEvents = 1U;
    static constexpr unsigned kRecordRoundSizes = 2U;
    unsigned record_ = 0; ///< kRecord* bits: what each closing group stores
    bool record_rounds_ = true;
    bool finished_ = false;

    std::vector<ClusterEvent> events_;
    std::vector<RoundLargest> rounds_;
    std::vector<int> round_sizes_;      ///< the current round's groups
    std::vector<int> last_round_sizes_; ///< the last closed round's groups
    /// Sentinel-valued hitting-time tables, [size] 1..n: infinity = never.
    std::vector<sim::SimTime> first_up_;
    std::vector<sim::SimTime> first_down_;
    /// Before finish(): rounds_by_largest_[s] counts closed rounds whose
    /// largest cluster was exactly s (one increment per round). finish()
    /// prefix-sums it in place into the cumulative "at most s" form.
    std::vector<std::uint64_t> rounds_by_largest_;
    std::uint64_t rounds_closed_ = 0;
};

} // namespace routesync::core
