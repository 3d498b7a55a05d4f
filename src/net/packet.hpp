// Packets for the packet-level network simulator.
//
// The network substrate exists to reproduce the paper's *measurements*
// (Section 2): ping RTT/loss series through routers whose CPUs stall on
// synchronized routing updates (Figures 1-2) and audio streams competing
// with update storms (Figure 3). Packets carry only what those experiments
// need: addressing, size (for serialization delay), sequencing, and an
// optional routing-update payload.
//
// Routing-update payloads are pooled: a broadcast of N packet copies
// shares one PayloadPool slot through PayloadRef — a 16-byte handle with
// a plain (non-atomic) reference count, so fan-out costs neither an
// allocation nor refcount cache-line contention. Recycled slots keep
// their entry-vector capacity, so steady-state update generation does not
// allocate at all.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "net/slab_arena.hpp"
#include "sim/time.hpp"

namespace routesync::net {

using NodeId = int;

enum class PacketType : std::uint8_t {
    Data,          ///< generic payload (background traffic)
    PingRequest,   ///< echo request (apps::PingApp)
    PingReply,     ///< echo reply
    Audio,         ///< CBR audio (apps::CbrSource)
    RoutingUpdate, ///< distance-vector full-table update
};

/// The number of PacketType enumerators.
inline constexpr std::size_t kPacketTypeCount = 5;
static_assert(static_cast<std::size_t>(PacketType::RoutingUpdate) + 1 ==
                  kPacketTypeCount,
              "kPacketTypeCount must count every PacketType");

/// A set of PacketTypes, one bit per type: the frame types a SharedLan
/// station hears (SharedLan::attach).
class PacketTypeSet {
public:
    /// The empty set.
    constexpr PacketTypeSet() noexcept = default;
    constexpr PacketTypeSet(std::initializer_list<PacketType> types) noexcept {
        for (const PacketType t : types) {
            bits_ = static_cast<std::uint8_t>(bits_ | bit(t));
        }
    }

    /// Every type.
    [[nodiscard]] static constexpr PacketTypeSet all() noexcept {
        PacketTypeSet set;
        set.bits_ = static_cast<std::uint8_t>((1U << kPacketTypeCount) - 1U);
        return set;
    }

    [[nodiscard]] constexpr bool contains(PacketType t) const noexcept {
        return (bits_ & bit(t)) != 0;
    }

    friend constexpr bool operator==(PacketTypeSet, PacketTypeSet) = default;

private:
    static constexpr std::uint8_t bit(PacketType t) noexcept {
        return static_cast<std::uint8_t>(1U << static_cast<unsigned>(t));
    }

    static_assert(kPacketTypeCount <= 8, "PacketTypeSet holds 8 types");
    std::uint8_t bits_ = 0;
};

/// A distance-vector route advertisement entry.
struct RouteEntry {
    NodeId dest;
    int metric;
};

/// Full-table routing update payload; built once by the sender, then
/// immutable and shared between the copies a broadcast produces.
struct UpdatePayload {
    NodeId sender = -1;
    bool triggered = false;
    std::vector<RouteEntry> entries;
    /// Routes beyond this topology's (simulating a full backbone table);
    /// they add processing cost and update bytes but carry no reachability.
    int filler_routes = 0;

    [[nodiscard]] int total_routes() const noexcept {
        return static_cast<int>(entries.size()) + filler_routes;
    }
};

class PayloadPool;

/// Shared, copyable handle to a pooled UpdatePayload. Copying bumps a
/// plain refcount in the owning pool; the slot is recycled (capacity
/// intact) when the last handle drops. Read access only — the payload is
/// immutable once attached to a packet; the builder mutates it through
/// PayloadRef::mutate() while it still holds the only reference.
class PayloadRef {
public:
    PayloadRef() noexcept = default;
    PayloadRef(const PayloadRef& other) noexcept;
    PayloadRef(PayloadRef&& other) noexcept
        : pool_{other.pool_}, slot_{other.slot_} {
        other.pool_ = nullptr;
    }
    PayloadRef& operator=(const PayloadRef& other) noexcept;
    PayloadRef& operator=(PayloadRef&& other) noexcept {
        if (this != &other) {
            reset();
            pool_ = other.pool_;
            slot_ = other.slot_;
            other.pool_ = nullptr;
        }
        return *this;
    }
    ~PayloadRef() { reset(); }

    [[nodiscard]] explicit operator bool() const noexcept { return pool_ != nullptr; }
    [[nodiscard]] const UpdatePayload& operator*() const noexcept;
    [[nodiscard]] const UpdatePayload* operator->() const noexcept;
    [[nodiscard]] const UpdatePayload* get() const noexcept;

    /// True when this is the only handle on the slot.
    [[nodiscard]] bool unique() const noexcept;

    /// Builder-side write access; only legal while unique().
    [[nodiscard]] UpdatePayload& mutate() noexcept;

    void reset() noexcept;

private:
    friend class PayloadPool;
    PayloadRef(PayloadPool* pool, std::uint32_t slot) noexcept
        : pool_{pool}, slot_{slot} {}

    PayloadPool* pool_ = nullptr;
    std::uint32_t slot_ = 0;
};

/// Slab pool of UpdatePayload slots. One pool per thread via local();
/// explicit instances for tests and benchmarks.
class PayloadPool {
public:
    PayloadPool() = default;
    PayloadPool(const PayloadPool&) = delete;
    PayloadPool& operator=(const PayloadPool&) = delete;

    /// A fresh payload (fields reset, entry capacity recycled) with one
    /// reference.
    [[nodiscard]] PayloadRef acquire() {
        const std::uint32_t idx = arena_.acquire();
        UpdatePayload& p = arena_.value(idx);
        p.sender = -1;
        p.triggered = false;
        p.entries.clear();
        p.filler_routes = 0;
        return PayloadRef{this, idx};
    }

    /// The calling thread's pool. Simulations are single-threaded, so
    /// every handle created by a simulation stays on its thread; slot
    /// indices are never observable in simulation output, which keeps
    /// pooled runs byte-identical to the unpooled seed.
    [[nodiscard]] static PayloadPool& local() {
        thread_local PayloadPool pool;
        return pool;
    }

    [[nodiscard]] std::size_t live() const noexcept { return arena_.live(); }
    [[nodiscard]] std::size_t peak_live() const noexcept { return arena_.peak_live(); }
    [[nodiscard]] std::size_t capacity() const noexcept { return arena_.capacity(); }

private:
    friend class PayloadRef;
    detail::SlabArena<UpdatePayload> arena_;
};

inline PayloadRef::PayloadRef(const PayloadRef& other) noexcept
    : pool_{other.pool_}, slot_{other.slot_} {
    if (pool_ != nullptr) {
        pool_->arena_.add_ref(slot_);
    }
}

inline PayloadRef& PayloadRef::operator=(const PayloadRef& other) noexcept {
    if (this != &other) {
        if (other.pool_ != nullptr) {
            other.pool_->arena_.add_ref(other.slot_);
        }
        reset();
        pool_ = other.pool_;
        slot_ = other.slot_;
    }
    return *this;
}

inline const UpdatePayload& PayloadRef::operator*() const noexcept {
    return pool_->arena_.value(slot_);
}

inline const UpdatePayload* PayloadRef::operator->() const noexcept {
    return &pool_->arena_.value(slot_);
}

inline const UpdatePayload* PayloadRef::get() const noexcept {
    return pool_ == nullptr ? nullptr : &pool_->arena_.value(slot_);
}

inline bool PayloadRef::unique() const noexcept {
    return pool_ != nullptr && pool_->arena_.refs(slot_) == 1;
}

inline UpdatePayload& PayloadRef::mutate() noexcept {
    assert(unique() && "PayloadRef::mutate: payload already shared");
    return pool_->arena_.value(slot_);
}

inline void PayloadRef::reset() noexcept {
    if (pool_ != nullptr) {
        pool_->arena_.release(slot_);
        pool_ = nullptr;
    }
}

struct Packet {
    PacketType type = PacketType::Data;
    NodeId src = -1;
    NodeId dst = -1; ///< -1 broadcasts to all neighbours (routing updates)
    std::uint32_t size_bytes = 0;
    std::uint64_t seq = 0; ///< per-flow sequence number
    sim::SimTime sent_at;  ///< origination time (RTT accounting)
    PayloadRef update;     ///< set for RoutingUpdate
    int ttl = 64;
};

} // namespace routesync::net
