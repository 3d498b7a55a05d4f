// RedQueue: Random Early Detection AQM as a queue element.
//
// The discipline of Floyd & Jacobson, "Random Early Detection Gateways
// for Congestion Avoidance" (1993) — the companion fix the sync paper
// cites as "random early drop fixes it" [FJ92]: keep an EWMA of the
// queue length and drop arrivals probabilistically between min_th and
// max_th, so drops decorrelate across flows instead of clustering at
// the buffer cliff the way drop-tail's do.
//
// Determinism: the drop lottery uses a private mt19937_64 seeded from
// RedTuning::seed, so a run consumes no shared randomness and is
// byte-identical for any --jobs value.
#pragma once

#include <random>
#include <utility>

#include "net/elements/queue_element.hpp"
#include "net/packet_ring.hpp"

namespace routesync::net::elements {

/// RED parameters, in packets (the paper's Section 11 defaults scaled to
/// the small buffers these scenarios run with).
struct RedTuning {
    double min_th = 5.0;   ///< below: never early-drop
    double max_th = 15.0;  ///< above: always drop
    double max_p = 0.02;   ///< early-drop probability at max_th
    double weight = 0.002; ///< EWMA weight w_q for the average queue
    std::uint64_t seed = 1;///< drop-lottery seed
};

class RedQueue final : public QueueElement {
public:
    RedQueue(sim::Engine& engine, std::string name, std::size_t max_packets,
             const RedTuning& tuning = {});

    [[nodiscard]] const char* kind() const noexcept override {
        return "RedQueue";
    }

    bool enqueue(PooledPacket p) override;
    [[nodiscard]] PooledPacket dequeue() override;
    [[nodiscard]] const Packet* peek() const override {
        return items_.empty() ? nullptr : items_.front().get();
    }

    [[nodiscard]] FastOps fast_ops() noexcept override {
        return fast_ops_for<RedQueue>();
    }

    [[nodiscard]] std::size_t size() const noexcept override {
        return items_.size();
    }
    [[nodiscard]] std::uint64_t bytes() const noexcept override {
        return bytes_;
    }
    [[nodiscard]] std::size_t capacity() const noexcept override {
        return max_packets_;
    }
    [[nodiscard]] const QueueStats& stats() const noexcept override {
        return stats_;
    }

    /// Current EWMA queue average, in packets.
    [[nodiscard]] double average() const noexcept { return avg_; }
    /// Probabilistic drops between min_th and max_th.
    [[nodiscard]] std::uint64_t early_drops() const noexcept {
        return early_drops_;
    }
    /// Deterministic drops: avg >= max_th or the buffer physically full.
    [[nodiscard]] std::uint64_t forced_drops() const noexcept {
        return forced_drops_;
    }

    void collect_metrics(obs::MetricsRegistry& reg,
                         const std::string& prefix) const override;

private:
    [[nodiscard]] bool should_drop();

    std::size_t max_packets_;
    RedTuning tuning_;
    PacketRing<> items_;
    std::uint64_t bytes_ = 0;
    QueueStats stats_;
    double avg_ = 0.0;
    std::int64_t count_ = -1; ///< arrivals since the last early drop
    std::uint64_t early_drops_ = 0;
    std::uint64_t forced_drops_ = 0;
    std::mt19937_64 gen_;
    std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

} // namespace routesync::net::elements
