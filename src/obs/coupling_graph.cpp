#include "obs/coupling_graph.hpp"

#include <algorithm>
#include <bit>
#include <tuple>

#include "obs/json.hpp"

namespace routesync::obs {

std::size_t CouplingGraph::probe(int src, int dst) const noexcept {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
        static_cast<std::uint32_t>(dst);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i =
        static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    for (; slots_[i] != 0; i = (i + 1) & mask) {
        const Edge& e = edges_[slots_[i] - 1];
        if (e.src == src && e.dst == dst) {
            break;
        }
    }
    return i;
}

void CouplingGraph::grow() {
    const std::size_t size = slots_.empty() ? 16 : 2 * slots_.size();
    slots_.assign(size, 0);
    shift_ = 64 - std::countr_zero(size);
    for (std::size_t e = 0; e < edges_.size(); ++e) {
        slots_[probe(edges_[e].src, edges_[e].dst)] =
            static_cast<std::uint32_t>(e + 1);
    }
}

void CouplingGraph::add_edge(int src, int dst, std::uint64_t weight) {
    total_ += weight;
    if (slots_.empty()) {
        grow();
    }
    const std::size_t i = probe(src, dst);
    if (slots_[i] != 0) {
        edges_[slots_[i] - 1].weight += weight;
        return;
    }
    edges_.push_back(Edge{src, dst, weight});
    slots_[i] = static_cast<std::uint32_t>(edges_.size());
    if (2 * edges_.size() > slots_.size()) {
        grow();
    }
}

bool CouplingGraph::operator==(const CouplingGraph& other) const {
    if (edges_.size() != other.edges_.size()) {
        return false;
    }
    for (const Edge& e : edges_) {
        const std::size_t i = other.probe(e.src, e.dst);
        if (other.slots_[i] == 0 ||
            other.edges_[other.slots_[i] - 1].weight != e.weight) {
            return false;
        }
    }
    return true;
}

std::vector<CouplingGraph::Edge> CouplingGraph::edges() const {
    std::vector<Edge> sorted = edges_;
    std::sort(sorted.begin(), sorted.end(), [](const Edge& x, const Edge& y) {
        return std::tie(x.src, x.dst) < std::tie(y.src, y.dst);
    });
    return sorted;
}

std::size_t CouplingGraph::node_count() const {
    std::vector<int> nodes;
    nodes.reserve(2 * edges_.size());
    for (const Edge& e : edges_) {
        nodes.push_back(e.src);
        nodes.push_back(e.dst);
    }
    std::sort(nodes.begin(), nodes.end());
    return static_cast<std::size_t>(
        std::unique(nodes.begin(), nodes.end()) - nodes.begin());
}

std::string CouplingGraph::to_dot() const {
    std::string out = "digraph coupling {\n";
    for (const Edge& e : edges()) {
        out += "  n";
        out += std::to_string(e.src);
        out += " -> n";
        out += std::to_string(e.dst);
        out += " [label=\"";
        out += std::to_string(e.weight);
        out += "\" weight=";
        out += std::to_string(e.weight);
        out += "];\n";
    }
    out += "}\n";
    return out;
}

std::string CouplingGraph::to_json() const {
    JsonWriter w;
    w.begin_object();
    w.key("nodes");
    w.value(static_cast<std::uint64_t>(node_count()));
    w.key("edges");
    w.begin_array();
    for (const Edge& e : edges()) {
        w.begin_object();
        w.key("src");
        w.value(static_cast<std::int64_t>(e.src));
        w.key("dst");
        w.value(static_cast<std::int64_t>(e.dst));
        w.key("weight");
        w.value(e.weight);
        w.end_object();
    }
    w.end_array();
    w.key("total_weight");
    w.value(total_);
    w.end_object();
    return w.str();
}

} // namespace routesync::obs
