#include "core/timer_policy.hpp"

#include <stdexcept>

namespace routesync::core {

UniformJitter::UniformJitter(sim::SimTime tp, sim::SimTime tr) : tp_{tp}, tr_{tr} {
    if (tr < sim::SimTime::zero() || tr > tp) {
        throw std::invalid_argument{"UniformJitter: need 0 <= Tr <= Tp"};
    }
    if (tp <= sim::SimTime::zero()) {
        throw std::invalid_argument{"UniformJitter: Tp must be positive"};
    }
}

sim::SimTime UniformJitter::next_interval(rng::DefaultEngine& gen) const {
    return sim::SimTime::seconds(
        rng::uniform_real(gen, (tp_ - tr_).sec(), (tp_ + tr_).sec()));
}

HalfPeriodJitter::HalfPeriodJitter(sim::SimTime tp) : tp_{tp} {
    if (tp <= sim::SimTime::zero()) {
        throw std::invalid_argument{"HalfPeriodJitter: Tp must be positive"};
    }
}

sim::SimTime HalfPeriodJitter::next_interval(rng::DefaultEngine& gen) const {
    return sim::SimTime::seconds(rng::uniform_real(gen, 0.5 * tp_.sec(), 1.5 * tp_.sec()));
}

FixedInterval::FixedInterval(sim::SimTime tp) : tp_{tp} {
    if (tp <= sim::SimTime::zero()) {
        throw std::invalid_argument{"FixedInterval: Tp must be positive"};
    }
}

sim::SimTime FixedInterval::next_interval(rng::DefaultEngine& /*gen*/) const {
    return tp_;
}

} // namespace routesync::core
