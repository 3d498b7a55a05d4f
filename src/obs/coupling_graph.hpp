// Causal coupling graph: who-reset-whom edge weights.
//
// Every timer re-arm in the Periodic Messages model happens because the
// router just finished a busy period — a busy period whose end was set
// (or last extended) by some router's transmission. Attributing each
// re-arm to the most recent transmission yields a directed multigraph
// whose edge (i -> j) counts how often router i's message was the one
// that released router j's timer. A synchronized cluster shows up as a
// dense near-clique; the lone-router phase as a diagonal of self-edges
// (a router re-armed by its own transmission).
//
// The attribution is exact under the paper's shared-busy model (the last
// transmission before a re-arm is by construction the one that extended
// the busy period to the re-arm instant) and heuristic under
// reset_at_expiry, where timers never couple (documented in
// docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace routesync::obs {

class CouplingGraph {
public:
    struct Edge {
        int src = 0;
        int dst = 0;
        std::uint64_t weight = 0;
    };

    /// Records `weight` more resets of `dst` attributed to `src`.
    void add_edge(int src, int dst, std::uint64_t weight = 1);

    /// All edges, sorted by (src, dst) — the deterministic export order.
    [[nodiscard]] std::vector<Edge> edges() const;

    [[nodiscard]] std::size_t edge_count() const noexcept {
        return edges_.size();
    }
    /// Sum of all edge weights == number of attributed resets.
    [[nodiscard]] std::uint64_t total_weight() const noexcept { return total_; }
    /// Distinct routers appearing as a source or destination.
    [[nodiscard]] std::size_t node_count() const;

    /// Same edges with the same weights, whatever the insertion order.
    [[nodiscard]] bool operator==(const CouplingGraph& other) const;

    /// Graphviz DOT document: one `src -> dst [label="w" weight=w];` line
    /// per edge in (src, dst) order.
    [[nodiscard]] std::string to_dot() const;
    /// JSON document: {"nodes": N, "edges": [{"src","dst","weight"}...],
    /// "total_weight": W}.
    [[nodiscard]] std::string to_json() const;

private:
    /// Slot of (src, dst) in slots_, or of the empty slot it would take.
    [[nodiscard]] std::size_t probe(int src, int dst) const noexcept;
    /// Doubles slots_ (16 on first use) and re-indexes every edge.
    void grow();

    // Edges in insertion order, indexed by an open-addressing table of
    // edge positions (+1; 0 marks an empty slot) hashed on the packed
    // (src, dst) pair and kept at most half full. Nothing is allocated
    // until the first edge; sorting happens only on export.
    std::vector<Edge> edges_;
    std::vector<std::uint32_t> slots_;
    int shift_ = 64; ///< 64 - log2(slots_.size()), for Fibonacci hashing
    std::uint64_t total_ = 0;
};

} // namespace routesync::obs
