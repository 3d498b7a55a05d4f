// CallbackSink: the graph-to-host boundary. A push input that hands
// every packet to a std::function, so element paths terminate into the
// same deliver callbacks Node/Router/SharedLan always used.
#pragma once

#include <functional>
#include <stdexcept>
#include <utility>

#include "net/elements/element.hpp"

namespace routesync::net::elements {

class CallbackSink final : public Element {
public:
    CallbackSink(sim::Engine& engine, std::string name,
                 std::function<void(PooledPacket)> deliver)
        : Element{engine, std::move(name)}, deliver_{std::move(deliver)} {
        if (!deliver_) {
            throw std::invalid_argument{"CallbackSink: callback required"};
        }
    }

    [[nodiscard]] const char* kind() const noexcept override {
        return "CallbackSink";
    }
    [[nodiscard]] std::vector<PortSpec> input_ports() const override {
        return {{PortKind::Push, "in"}};
    }
    [[nodiscard]] std::vector<PortSpec> output_ports() const override {
        return {};
    }

    void push(int port, PooledPacket p) override {
        if (port != 0) {
            bad_port("push into", port);
        }
        ++delivered_;
        deliver_(std::move(p));
    }

    [[nodiscard]] FastOps fast_ops() noexcept override {
        return fast_ops_for<CallbackSink>();
    }

    [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }

    void collect_metrics(obs::MetricsRegistry& reg,
                         const std::string& prefix) const override {
        reg.add(prefix + "." + name() + ".delivered", delivered_);
    }

private:
    std::function<void(PooledPacket)> deliver_;
    std::uint64_t delivered_ = 0;
};

} // namespace routesync::net::elements
