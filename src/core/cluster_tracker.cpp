#include "core/cluster_tracker.hpp"

#include <cmath>
#include <stdexcept>

namespace routesync::core {

namespace {
/// Sentinel for "this size was never reached": no real event time is
/// infinite, so the flat 8-byte table encodes optional<SimTime> exactly.
constexpr sim::SimTime kNever = sim::SimTime::infinity();
} // namespace

ClusterTracker::ClusterTracker(int n, sim::SimTime round_length, sim::SimTime tolerance)
    : n_{n}, round_length_{round_length}, tolerance_{tolerance} {
    if (n < 1) {
        throw std::invalid_argument{"ClusterTracker: n must be >= 1"};
    }
    if (round_length <= sim::SimTime::zero()) {
        throw std::invalid_argument{"ClusterTracker: round_length must be positive"};
    }
    if (tolerance < sim::SimTime::zero()) {
        throw std::invalid_argument{"ClusterTracker: tolerance must be >= 0"};
    }
    first_up_.assign(static_cast<std::size_t>(n) + 1, kNever);
    first_down_.assign(static_cast<std::size_t>(n) + 1, kNever);
    rounds_by_largest_.assign(static_cast<std::size_t>(n) + 1, 0);
    down_filled_from_ = n + 1;
    record_rounds_ = n <= kAutoRecordRoundsMaxN;
}

void ClusterTracker::reset(int n, sim::SimTime round_length,
                           sim::SimTime tolerance) {
    if (n < 1) {
        throw std::invalid_argument{"ClusterTracker: n must be >= 1"};
    }
    if (round_length <= sim::SimTime::zero()) {
        throw std::invalid_argument{"ClusterTracker: round_length must be positive"};
    }
    if (tolerance < sim::SimTime::zero()) {
        throw std::invalid_argument{"ClusterTracker: tolerance must be >= 0"};
    }
    n_ = n;
    round_length_ = round_length;
    tolerance_ = tolerance;

    group_open_ = false;
    group_start_ = sim::SimTime::zero();
    group_last_ = sim::SimTime::zero();
    group_size_ = 0;
    group_round_ = 0;
    group_last_round_ = 0;
    events_seen_ = 0;
    event_round_ = 0;
    idx_in_round_ = 0;
    current_round_ = 0;
    current_round_largest_ = 0;
    spill_largest_ = 0;
    max_size_seen_ = 0;
    down_filled_from_ = n + 1;
    round_end_time_ = sim::SimTime::zero();
    record_ = 0;
    record_rounds_ = n <= kAutoRecordRoundsMaxN;
    finished_ = false;
    rounds_closed_ = 0;

    on_full_sync = nullptr;
    on_size_first_reached = nullptr;
    on_round_closed = nullptr;

    // The whole point of reset(): clear() + assign() reuse the vectors'
    // existing storage instead of reallocating per run.
    events_.clear();
    rounds_.clear();
    round_sizes_.clear();
    last_round_sizes_.clear();
    first_up_.assign(static_cast<std::size_t>(n) + 1, kNever);
    first_down_.assign(static_cast<std::size_t>(n) + 1, kNever);
    rounds_by_largest_.assign(static_cast<std::size_t>(n) + 1, 0);
}

void ClusterTracker::throw_out_of_order() {
    throw std::logic_error{"ClusterTracker: events out of order"};
}

void ClusterTracker::record_group() {
    if ((record_ & kRecordEvents) != 0) {
        events_.push_back(ClusterEvent{group_start_, group_size_});
    }
    if ((record_ & kRecordRoundSizes) != 0) {
        round_sizes_.push_back(group_size_);
    }
}

void ClusterTracker::close_current_round() {
    if (current_round_largest_ == 0) {
        return; // nothing observed (only possible before the first event)
    }
    if ((record_ & kRecordRoundSizes) != 0) {
        // The next round's sizes start with the group that straddled
        // into it, as its largest does.
        last_round_sizes_.swap(round_sizes_);
        round_sizes_.clear();
        if (spill_largest_ > 0) {
            round_sizes_.push_back(spill_largest_);
        }
    }
    const RoundLargest rec{current_round_, current_round_largest_, round_end_time_};
    ++rounds_closed_;
    // O(1) histogram bump; the cumulative "at most" form a caller wants is
    // a single prefix sum deferred to finish(). The previous code walked
    // [largest, n] every round — O(N) per round is 10^5 stores/round at
    // metro scale.
    ++rounds_by_largest_[static_cast<std::size_t>(current_round_largest_)];
    // first_down_ is filled for a suffix [down_filled_from_, n]; only a
    // new record-low largest extends it.
    if (current_round_largest_ < down_filled_from_) {
        for (int s = current_round_largest_; s < down_filled_from_; ++s) {
            first_down_[static_cast<std::size_t>(s)] = round_end_time_;
        }
        down_filled_from_ = current_round_largest_;
    }
    if (record_rounds_) {
        rounds_.push_back(rec);
    }
    if (on_round_closed) {
        on_round_closed(rec);
    }
}

void ClusterTracker::finish() {
    if (finished_) {
        return;
    }
    if (group_open_) {
        finalize_group();
    }
    close_current_round();
    // Materialize the cumulative form in place: after this,
    // rounds_by_largest_[s] == closed rounds whose largest was <= s.
    for (std::size_t s = 1; s < rounds_by_largest_.size(); ++s) {
        rounds_by_largest_[s] += rounds_by_largest_[s - 1];
    }
    finished_ = true;
}

std::optional<sim::SimTime> ClusterTracker::first_time_size_at_least(int s) const {
    if (s < 1 || s > n_) {
        throw std::out_of_range{"first_time_size_at_least: size outside [1, n]"};
    }
    // first_up_[k] is the first time size exactly k was reached while a
    // group grew; a group of size m passes through every size <= m, so
    // first_up_[s] already covers "at least s".
    const sim::SimTime t = first_up_[static_cast<std::size_t>(s)];
    if (t == kNever) {
        return std::nullopt;
    }
    return t;
}

std::optional<sim::SimTime> ClusterTracker::first_round_largest_at_most(int s) const {
    if (s < 1 || s > n_) {
        throw std::out_of_range{"first_round_largest_at_most: size outside [1, n]"};
    }
    const sim::SimTime t = first_down_[static_cast<std::size_t>(s)];
    if (t == kNever) {
        return std::nullopt;
    }
    return t;
}

std::uint64_t ClusterTracker::rounds_with_largest_at_most(int s) const {
    if (s < 1 || s > n_) {
        throw std::out_of_range{"rounds_with_largest_at_most: size outside [1, n]"};
    }
    if (finished_) {
        return rounds_by_largest_[static_cast<std::size_t>(s)];
    }
    // Pre-finish query: the table still holds the raw histogram; sum it.
    std::uint64_t total = 0;
    for (int k = 1; k <= s; ++k) {
        total += rounds_by_largest_[static_cast<std::size_t>(k)];
    }
    return total;
}

std::size_t ClusterTracker::state_bytes() const noexcept {
    return first_up_.capacity() * sizeof(sim::SimTime) +
           first_down_.capacity() * sizeof(sim::SimTime) +
           rounds_by_largest_.capacity() * sizeof(std::uint64_t) +
           events_.capacity() * sizeof(ClusterEvent) +
           rounds_.capacity() * sizeof(RoundLargest) +
           (round_sizes_.capacity() + last_round_sizes_.capacity()) * sizeof(int);
}

} // namespace routesync::core
