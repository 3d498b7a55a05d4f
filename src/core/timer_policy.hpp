// Routing-timer policies.
//
// The paper's central knob is how a router chooses the interval until its
// next routing message. Three policies appear in the paper:
//
//  * UniformJitter  — the Periodic Messages model (Section 3): interval
//                     uniform on [Tp - Tr, Tp + Tr]. Small Tr (accidental
//                     OS-level noise) synchronizes; large Tr (deliberate
//                     randomization) breaks synchronization up.
//  * HalfPeriodJitter — the Section 6 recommendation: interval uniform on
//                     [0.5*Tp, 1.5*Tp], i.e. Tr = Tp/2; "should eliminate
//                     any synchronization of routing messages".
//  * Fixed          — a constant interval (Tr = 0); used with the
//                     reset-at-expiry clock to model the RFC 1058
//                     alternative, which never *forms* clusters through
//                     the busy-period mechanism but also never breaks up
//                     clusters that exist at start.
#pragma once

#include <memory>

#include "rng/rng.hpp"
#include "sim/time.hpp"

namespace routesync::core {

/// Strategy for drawing the interval between successive routing messages.
class TimerPolicy {
public:
    virtual ~TimerPolicy() = default;

    /// Draws the time until the next timer expiration.
    [[nodiscard]] virtual sim::SimTime next_interval(rng::DefaultEngine& gen) const = 0;

    /// Mean of the drawn interval (used by analyses and round bookkeeping).
    [[nodiscard]] virtual sim::SimTime mean_interval() const noexcept = 0;
};

/// Interval uniform on [tp - tr, tp + tr]; requires 0 <= tr <= tp.
class UniformJitter final : public TimerPolicy {
public:
    UniformJitter(sim::SimTime tp, sim::SimTime tr);

    [[nodiscard]] sim::SimTime next_interval(rng::DefaultEngine& gen) const override;
    [[nodiscard]] sim::SimTime mean_interval() const noexcept override { return tp_; }

    [[nodiscard]] sim::SimTime tp() const noexcept { return tp_; }
    [[nodiscard]] sim::SimTime tr() const noexcept { return tr_; }

private:
    sim::SimTime tp_;
    sim::SimTime tr_;
};

/// Interval uniform on [0.5*tp, 1.5*tp] (Section 6 recommendation).
class HalfPeriodJitter final : public TimerPolicy {
public:
    explicit HalfPeriodJitter(sim::SimTime tp);

    [[nodiscard]] sim::SimTime next_interval(rng::DefaultEngine& gen) const override;
    [[nodiscard]] sim::SimTime mean_interval() const noexcept override { return tp_; }

private:
    sim::SimTime tp_;
};

/// Constant interval (no randomness at all).
class FixedInterval final : public TimerPolicy {
public:
    explicit FixedInterval(sim::SimTime tp);

    [[nodiscard]] sim::SimTime next_interval(rng::DefaultEngine& gen) const override;
    [[nodiscard]] sim::SimTime mean_interval() const noexcept override { return tp_; }

private:
    sim::SimTime tp_;
};

} // namespace routesync::core
