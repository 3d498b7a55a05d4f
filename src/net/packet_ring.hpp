// PacketRing: the packet path's FIFO storage.
//
// std::deque allocates a fresh block every few dozen elements as a FIFO
// slides through it, so a queue that never grows past a handful of
// packets still allocates for as long as traffic flows. PacketRing is a
// power-of-two ring that doubles when full and never shrinks: once a
// FIFO has reached its high-water mark, pushing and popping allocate
// nothing. The station queues (DropTailQueue, RedQueue), DelayLink's
// in-flight packets and SharedLan's pending broadcasts all keep one. A
// bounded queue reserves its whole capacity up front when that is at
// most kRingReservePackets, so it never allocates after construction.
//
// Elements are default-constructed in place and moved in and out, so T
// must be default-constructible and movable, and a moved-from T must
// hold no resource (a moved-from PooledPacket is an empty handle).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "net/packet_pool.hpp"

namespace routesync::net {

/// Queues up to this many packets deep reserve their capacity at
/// construction; deeper ones (benchmarks configure 2^20 to mean
/// "unbounded") grow on demand.
inline constexpr std::size_t kRingReservePackets = 64;

template <typename T = PooledPacket>
class PacketRing {
public:
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

    /// The oldest element. Precondition: !empty().
    [[nodiscard]] T& front() noexcept { return buf_[head_]; }
    [[nodiscard]] const T& front() const noexcept { return buf_[head_]; }

    /// Makes room for at least `n` elements without further growth.
    void reserve(std::size_t n) {
        if (n > buf_.size()) {
            regrow(std::bit_ceil(std::max(n, kMinCapacity)));
        }
    }

    void push_back(T&& value) {
        if (size_ == buf_.size()) {
            regrow(buf_.empty() ? kMinCapacity : 2 * buf_.size());
        }
        buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
        ++size_;
    }

    /// Removes and returns the oldest element. Precondition: !empty().
    T pop_front() {
        T value = std::move(buf_[head_]);
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
        return value;
    }

private:
    static constexpr std::size_t kMinCapacity = 8;

    /// Moves the elements, in FIFO order, to the front of a new buffer of
    /// `capacity` (a power of two, at least size_).
    void regrow(std::size_t capacity) {
        std::vector<T> bigger(capacity);
        for (std::size_t i = 0; i < size_; ++i) {
            bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        }
        buf_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> buf_; ///< size is zero or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace routesync::net
