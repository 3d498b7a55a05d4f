// Drop-tail FIFO packet queue with byte and packet capacity limits and
// drop/enqueue accounting. Holds pooled packet handles in a PacketRing,
// so queueing a packet moves 16 bytes and, once the ring has reached the
// queue's high-water mark, never copies or allocates.
#pragma once

#include <algorithm>
#include <cstdint>

#include "net/packet_pool.hpp"
#include "net/packet_ring.hpp"

namespace routesync::net {

struct QueueStats {
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t dropped = 0;
};

class DropTailQueue {
public:
    /// `max_packets` — capacity in packets; `max_bytes` — 0 disables the
    /// byte limit.
    explicit DropTailQueue(std::size_t max_packets = 64, std::uint64_t max_bytes = 0)
        : max_packets_{max_packets}, max_bytes_{max_bytes} {
        items_.reserve(std::min(max_packets, kRingReservePackets));
    }

    /// Returns false (and counts a drop, releasing the handle) when the
    /// packet does not fit.
    bool push(PooledPacket p);

    /// Removes and returns the head packet; an empty handle when the
    /// queue is empty.
    PooledPacket pop();

    /// The head packet without removing it; nullptr when empty.
    [[nodiscard]] const Packet* front() const noexcept {
        return items_.empty() ? nullptr : items_.front().get();
    }

    [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
    [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
    [[nodiscard]] const QueueStats& stats() const noexcept { return stats_; }

private:
    std::size_t max_packets_;
    std::uint64_t max_bytes_;
    PacketRing<> items_;
    std::uint64_t bytes_ = 0;
    QueueStats stats_;
};

inline bool DropTailQueue::push(PooledPacket p) {
    const bool over_packets = items_.size() >= max_packets_;
    const bool over_bytes = max_bytes_ > 0 && bytes_ + p->size_bytes > max_bytes_;
    if (over_packets || over_bytes) {
        ++stats_.dropped;
        return false;
    }
    bytes_ += p->size_bytes;
    items_.push_back(std::move(p));
    ++stats_.enqueued;
    return true;
}

inline PooledPacket DropTailQueue::pop() {
    if (items_.empty()) {
        return {};
    }
    PooledPacket p = items_.pop_front();
    bytes_ -= p->size_bytes;
    ++stats_.dequeued;
    return p;
}

} // namespace routesync::net
