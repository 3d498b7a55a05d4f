// The element API: composable packet-processing stages in the style of
// the Click modular router (kohler/click). An Element declares a fixed
// signature of typed ports; an ElementGraph (element_graph.hpp) wires
// outputs to inputs by name and validates the result.
//
// Port semantics (Click's push/pull duality):
//
//   Push — the upstream element hands a packet downstream immediately:
//     `output(port, p)` on the source invokes `push(port, p)` on the
//     connected peer. Sources of packets (agents, link receivers) have
//     push outputs; queues have push inputs.
//
//   Pull — the downstream element asks upstream for a packet when it is
//     ready for one: `input(port)` on the sink invokes `pull(port)` on
//     the connected peer, which returns an empty handle when it has
//     nothing. Transmitters drain queues through pull inputs, so the
//     queue — not the wire — absorbs the backlog.
//
// A connection is only legal between an output and an input of the same
// kind; `Element::connect_output` enforces this, plus port-range and
// double-connection checks, so a mis-wired graph fails at construction
// instead of corrupting a run.
//
// Timer hook: an element that needs virtual time arms its (single) timer
// with `schedule_timer_at/after`; the engine calls `on_timer()` when it
// expires. Re-arming from inside `on_timer` is the idiomatic periodic
// loop (see PeriodicAgent).
//
// Observability: `collect_metrics` publishes per-element counters under
// "elem.<name>.*" (obs::MetricsRegistry, PR 3); elements that accept or
// drop packets emit packet_enqueue/packet_drop trace events through the
// engine's tracer exactly like the pre-element Link/SharedLan did.
// Fast dispatch (PR 10): ElementGraph::finalize() resolves every
// connection to a cached {peer, port, function pointer} triple stored
// in the port slot, so a steady-state output()/input() is one indirect
// call through a devirtualized thunk instead of a connected-check plus
// a vtable dispatch. Elements opt in by overriding fast_ops() (usually
// `return fast_ops_for<Self>();`, which requires the class to be
// final); elements that don't opt in — and every graph finalized with
// DispatchMode::Virtual — keep taking the original checked virtual
// path, which is preserved bit-for-bit as the differential reference.
// The cached state is dispatch-only: topology introspection
// (output_peer, wire_spec) always reads the canonical peer table.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/packet_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace routesync::net::elements {

/// How a finalized graph routes output()/input() calls.
enum class DispatchMode : std::uint8_t {
    Fast,    ///< cached devirtualized dispatch (the default)
    Virtual, ///< the original checked virtual path (differential reference)
};

/// Direction-typed port classes (Click's push/pull).
enum class PortKind : std::uint8_t {
    Push, ///< data moves when the upstream element decides
    Pull, ///< data moves when the downstream element asks
};

[[nodiscard]] constexpr const char* port_kind_name(PortKind kind) noexcept {
    return kind == PortKind::Push ? "push" : "pull";
}

/// One port of an element's fixed signature.
struct PortSpec {
    PortKind kind;
    const char* label; ///< for diagnostics ("xmit", "overflow", ...)
};

class Element {
public:
    Element(sim::Engine& engine, std::string name)
        : engine_{engine}, name_{std::move(name)} {}
    virtual ~Element() { cancel_timer(); }

    Element(const Element&) = delete;
    Element& operator=(const Element&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] sim::Engine& engine() const noexcept { return engine_; }

    /// Element class name for diagnostics ("FifoQueue", ...).
    [[nodiscard]] virtual const char* kind() const noexcept = 0;

    /// The fixed port signature. Connections are validated against it.
    [[nodiscard]] virtual std::vector<PortSpec> input_ports() const = 0;
    [[nodiscard]] virtual std::vector<PortSpec> output_ports() const = 0;

    /// Packet handed to a push input. Default: no push inputs.
    virtual void push(int port, PooledPacket p);

    /// Packet requested from a pull output; empty handle when there is
    /// nothing to give. Default: no pull outputs.
    [[nodiscard]] virtual PooledPacket pull(int port);

    /// Devirtualized entry points for fast dispatch, resolved once at
    /// ElementGraph::finalize(). All-null (the default) means "not
    /// fast-capable": connections into this element stay on the checked
    /// virtual path.
    struct FastOps {
        using PushFn = void (*)(Element&, int, PooledPacket);
        using PullFn = PooledPacket (*)(Element&, int);
        PushFn push = nullptr;
        PullFn pull = nullptr;
    };

    /// Fast-dispatch opt-in hook. Override in a final element class as
    /// `return fast_ops_for<Self>();`.
    [[nodiscard]] virtual FastOps fast_ops() noexcept { return {}; }

    /// Thunks that call D's entry points through qualified (non-virtual)
    /// names. D must be final so the calls inside the inlined bodies
    /// devirtualize too.
    template <typename D>
    [[nodiscard]] static FastOps fast_ops_for() noexcept {
        static_assert(std::is_final_v<D>,
                      "fast_ops_for<D>: D must be final so qualified calls "
                      "devirtualize");
        return FastOps{
            [](Element& e, int port, PooledPacket p) {
                static_cast<D&>(e).D::push(port, std::move(p));
            },
            [](Element& e, int port) {
                return static_cast<D&>(e).D::pull(port);
            },
        };
    }

    /// Fills (DispatchMode::Fast) or clears (DispatchMode::Virtual) the
    /// cached per-port dispatch slots from the current wiring.
    /// ElementGraph::finalize() calls this on every element; standalone
    /// elements never resolve and always take the checked virtual path.
    void resolve_dispatch(DispatchMode mode);

    /// True when this element was last resolved with DispatchMode::Fast
    /// (elements gate event-structure optimizations on it, so a Virtual
    /// graph reproduces the reference event pattern exactly).
    [[nodiscard]] bool fast_dispatch() const noexcept {
        return fast_dispatch_;
    }

    /// Timer expiry hook; armed with schedule_timer_at/after.
    virtual void on_timer() {}

    /// Publishes this element's counters as "<prefix>.<name>.<counter>".
    /// Default: nothing to publish.
    virtual void collect_metrics(obs::MetricsRegistry& reg,
                                 const std::string& prefix) const;

    /// Wires this element's `out_port` to `downstream`'s `in_port`.
    /// Throws std::invalid_argument on port-range violations, kind
    /// mismatches (push output into pull input or vice versa), and
    /// double connections on either end.
    void connect_output(int out_port, Element& downstream, int in_port);

    [[nodiscard]] bool output_connected(int port) const noexcept {
        return port >= 0 && static_cast<std::size_t>(port) < outputs_.size() &&
               outputs_[static_cast<std::size_t>(port)].element != nullptr;
    }
    [[nodiscard]] bool input_connected(int port) const noexcept {
        return port >= 0 && static_cast<std::size_t>(port) < inputs_.size() &&
               inputs_[static_cast<std::size_t>(port)].element != nullptr;
    }

    /// The downstream peer wired to `out_port`: {element, its input
    /// port}, or {nullptr, 0} when the port is out of range or
    /// unconnected. Read-only topology introspection — this is how
    /// ElementGraph::wire_spec() recovers the wiring.
    struct PeerView {
        const Element* element = nullptr;
        int port = 0;
    };
    [[nodiscard]] PeerView output_peer(int port) const noexcept;

protected:
    /// Pushes `p` to whatever is connected downstream of `out_port`.
    /// Resolved ports take the cached devirtualized call; everything
    /// else falls back to the checked virtual path, which throws
    /// std::logic_error when the port was never wired (finalize()
    /// catches this earlier for graph-built elements).
    void output(int out_port, PooledPacket p) {
        const auto port = static_cast<std::size_t>(out_port);
        if (port < fast_out_.size() && fast_out_[port].push != nullptr) {
            const ResolvedOut& r = fast_out_[port];
            r.push(*r.element, r.port, std::move(p));
            return;
        }
        output_slow(out_port, std::move(p));
    }

    /// Pulls from whatever is connected upstream of `in_port` (which
    /// must be a pull input); empty handle when upstream is empty.
    [[nodiscard]] PooledPacket input(int in_port) {
        const auto port = static_cast<std::size_t>(in_port);
        if (port < fast_in_.size() && fast_in_[port].pull != nullptr) {
            const ResolvedIn& r = fast_in_[port];
            return r.pull(*r.element, r.port);
        }
        return input_slow(in_port);
    }

    void schedule_timer_at(sim::SimTime t) {
        cancel_timer();
        timer_event_ = engine_.schedule_at(t, [this] { on_timer(); });
        timer_armed_ = true;
    }
    void schedule_timer_after(sim::SimTime dt) {
        cancel_timer();
        timer_event_ = engine_.schedule_after(dt, [this] { on_timer(); });
        timer_armed_ = true;
    }
    void cancel_timer() noexcept {
        if (timer_armed_) {
            engine_.cancel(timer_event_);
            timer_armed_ = false;
        }
    }

    [[noreturn]] void bad_port(const char* action, int port) const;

private:
    struct Peer {
        Element* element = nullptr;
        int port = 0;
    };

    /// Cached dispatch for one resolved port. Null function pointers
    /// mean "use the checked virtual path" (unresolved, Virtual mode,
    /// or a peer that didn't opt in).
    struct ResolvedOut {
        Element* element = nullptr;
        int port = 0;
        FastOps::PushFn push = nullptr;
    };
    struct ResolvedIn {
        Element* element = nullptr;
        int port = 0;
        FastOps::PullFn pull = nullptr;
    };

    void ensure_peer_slots();
    void output_slow(int out_port, PooledPacket p);
    [[nodiscard]] PooledPacket input_slow(int in_port);

    sim::Engine& engine_;
    std::string name_;
    std::vector<Peer> outputs_; ///< indexed by output port
    std::vector<Peer> inputs_;  ///< indexed by input port
    std::vector<ResolvedOut> fast_out_; ///< dispatch cache (resolve_dispatch)
    std::vector<ResolvedIn> fast_in_;
    bool peers_sized_ = false;
    bool fast_dispatch_ = false;
    sim::EventHandle timer_event_{};
    bool timer_armed_ = false;
};

} // namespace routesync::net::elements
