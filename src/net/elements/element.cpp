#include "net/elements/element.hpp"

namespace routesync::net::elements {

void Element::push(int port, PooledPacket /*p*/) {
    bad_port("push into", port);
}

PooledPacket Element::pull(int port) {
    bad_port("pull from", port);
}

void Element::collect_metrics(obs::MetricsRegistry& /*reg*/,
                              const std::string& /*prefix*/) const {}

void Element::bad_port(const char* action, int port) const {
    throw std::logic_error{std::string{kind()} + " '" + name_ + "': cannot " +
                           action + " port " + std::to_string(port)};
}

void Element::ensure_peer_slots() {
    if (!peers_sized_) {
        outputs_.resize(output_ports().size());
        inputs_.resize(input_ports().size());
        peers_sized_ = true;
    }
}

void Element::connect_output(int out_port, Element& downstream, int in_port) {
    ensure_peer_slots();
    downstream.ensure_peer_slots();
    const auto outs = output_ports();
    const auto ins = downstream.input_ports();
    const auto describe = [&] {
        return name_ + "[" + std::to_string(out_port) + "] -> " +
               downstream.name_ + "[" + std::to_string(in_port) + "]";
    };
    if (out_port < 0 || static_cast<std::size_t>(out_port) >= outs.size()) {
        throw std::invalid_argument{"connect " + describe() + ": " + kind() +
                                    " has no output port " +
                                    std::to_string(out_port)};
    }
    if (in_port < 0 || static_cast<std::size_t>(in_port) >= ins.size()) {
        throw std::invalid_argument{"connect " + describe() + ": " +
                                    downstream.kind() + " has no input port " +
                                    std::to_string(in_port)};
    }
    const PortSpec out = outs[static_cast<std::size_t>(out_port)];
    const PortSpec in = ins[static_cast<std::size_t>(in_port)];
    if (out.kind != in.kind) {
        throw std::invalid_argument{
            "connect " + describe() + ": kind mismatch — output '" +
            std::string{out.label} + "' is " + port_kind_name(out.kind) +
            ", input '" + std::string{in.label} + "' is " +
            port_kind_name(in.kind)};
    }
    if (outputs_[static_cast<std::size_t>(out_port)].element != nullptr) {
        throw std::invalid_argument{"connect " + describe() + ": output '" +
                                    std::string{out.label} +
                                    "' is already connected"};
    }
    if (downstream.inputs_[static_cast<std::size_t>(in_port)].element != nullptr) {
        throw std::invalid_argument{"connect " + describe() + ": input '" +
                                    std::string{in.label} +
                                    "' is already connected"};
    }
    outputs_[static_cast<std::size_t>(out_port)] = Peer{&downstream, in_port};
    downstream.inputs_[static_cast<std::size_t>(in_port)] = Peer{this, out_port};
}

Element::PeerView Element::output_peer(int port) const noexcept {
    if (!output_connected(port)) {
        return {};
    }
    const Peer& peer = outputs_[static_cast<std::size_t>(port)];
    return {peer.element, peer.port};
}

void Element::output_slow(int out_port, PooledPacket p) {
    ensure_peer_slots();
    if (!output_connected(out_port)) {
        throw std::logic_error{std::string{kind()} + " '" + name_ +
                               "': output port " + std::to_string(out_port) +
                               " is not connected"};
    }
    const Peer& peer = outputs_[static_cast<std::size_t>(out_port)];
    peer.element->push(peer.port, std::move(p));
}

PooledPacket Element::input_slow(int in_port) {
    ensure_peer_slots();
    if (!input_connected(in_port)) {
        throw std::logic_error{std::string{kind()} + " '" + name_ +
                               "': input port " + std::to_string(in_port) +
                               " is not connected"};
    }
    const Peer& peer = inputs_[static_cast<std::size_t>(in_port)];
    return peer.element->pull(peer.port);
}

void Element::resolve_dispatch(DispatchMode mode) {
    ensure_peer_slots();
    fast_out_.assign(outputs_.size(), ResolvedOut{});
    fast_in_.assign(inputs_.size(), ResolvedIn{});
    fast_dispatch_ = mode == DispatchMode::Fast;
    if (!fast_dispatch_) {
        return;
    }
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
        if (outputs_[i].element == nullptr) {
            continue;
        }
        const FastOps ops = outputs_[i].element->fast_ops();
        fast_out_[i] =
            ResolvedOut{outputs_[i].element, outputs_[i].port, ops.push};
    }
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        if (inputs_[i].element == nullptr) {
            continue;
        }
        const FastOps ops = inputs_[i].element->fast_ops();
        fast_in_[i] =
            ResolvedIn{inputs_[i].element, inputs_[i].port, ops.pull};
    }
}

} // namespace routesync::net::elements
