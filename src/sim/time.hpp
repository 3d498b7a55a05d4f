// Simulation time.
//
// A strong type over double seconds: it cannot be mixed up with other
// doubles (rates, sizes, probabilities) at call sites, while remaining a
// trivially-copyable value type with the full arithmetic the simulations
// need. One type serves both time points and durations — the simulator
// convention (as in ns-2/ns-3), which keeps timer arithmetic direct.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>

namespace routesync::sim {

/// A point in simulation time, or a duration, in seconds.
class SimTime {
public:
    constexpr SimTime() noexcept = default;

    /// Named constructors make units explicit at call sites.
    static constexpr SimTime seconds(double s) noexcept { return SimTime{s}; }
    static constexpr SimTime millis(double ms) noexcept { return SimTime{ms * 1e-3}; }
    static constexpr SimTime micros(double us) noexcept { return SimTime{us * 1e-6}; }
    static constexpr SimTime zero() noexcept { return SimTime{0.0}; }
    static constexpr SimTime infinity() noexcept {
        return SimTime{std::numeric_limits<double>::infinity()};
    }

    [[nodiscard]] constexpr double sec() const noexcept { return s_; }
    [[nodiscard]] constexpr double ms() const noexcept { return s_ * 1e3; }
    [[nodiscard]] constexpr bool is_finite() const noexcept {
        return s_ < std::numeric_limits<double>::infinity() &&
               s_ > -std::numeric_limits<double>::infinity();
    }

    friend constexpr auto operator<=>(SimTime, SimTime) noexcept = default;

    constexpr SimTime& operator+=(SimTime rhs) noexcept {
        s_ += rhs.s_;
        return *this;
    }
    constexpr SimTime& operator-=(SimTime rhs) noexcept {
        s_ -= rhs.s_;
        return *this;
    }
    constexpr SimTime& operator*=(double k) noexcept {
        s_ *= k;
        return *this;
    }

    friend constexpr SimTime operator+(SimTime a, SimTime b) noexcept {
        return SimTime{a.s_ + b.s_};
    }
    friend constexpr SimTime operator-(SimTime a, SimTime b) noexcept {
        return SimTime{a.s_ - b.s_};
    }
    friend constexpr SimTime operator*(SimTime a, double k) noexcept {
        return SimTime{a.s_ * k};
    }
    friend constexpr SimTime operator*(double k, SimTime a) noexcept {
        return SimTime{k * a.s_};
    }
    friend constexpr SimTime operator/(SimTime a, double k) noexcept {
        return SimTime{a.s_ / k};
    }
    /// Ratio of two durations (dimensionless).
    friend constexpr double operator/(SimTime a, SimTime b) noexcept {
        return a.s_ / b.s_;
    }
    friend constexpr SimTime operator-(SimTime a) noexcept { return SimTime{-a.s_}; }

    /// a mod b, in [0, b) for b > 0 — used for phase offsets within a round.
    /// The one phase reduction in the code; its bits are std::fmod's plus
    /// the negative wrap, for every input.
    ///
    /// Fast path (t > 0, quotient q = t/L in (0, 2^52), which forces L
    /// positive and finite): let n = floor(t/L) be the true quotient.
    /// Division rounds monotonically and n, n + 1 are representable, so
    /// n <= q <= n + 1 and k = trunc(q) is n or n + 1. The remainder
    /// t - nL is exactly representable (the fact that makes fmod exact),
    /// so for k == n the single rounding of the fma returns fmod's bits.
    /// For k == n + 1 the exact t - kL lies in [-L, 0) and rounds below
    /// zero, which one decrement fixes. Every other input (-0.0,
    /// negatives, inf, NaN, huge quotients) takes fmod.
    [[nodiscard]] SimTime mod(SimTime period) const noexcept {
        const double q = s_ / period.s_;
        if (s_ > 0.0 && q > 0.0 && q < 0x1p52) {
            const double k = static_cast<double>(static_cast<std::int64_t>(q));
            double r = std::fma(-k, period.s_, s_);
            if (r < 0.0) {
                r = std::fma(1.0 - k, period.s_, s_);
            }
            return SimTime{r};
        }
        double r = std::fmod(s_, period.s_);
        if (r < 0) {
            r += period.s_;
        }
        return SimTime{r};
    }

private:
    explicit constexpr SimTime(double s) noexcept : s_{s} {}

    double s_ = 0.0;
};

/// User-defined literals: 3.5_sec, 200.0_msec.
namespace literals {
constexpr SimTime operator""_sec(long double s) noexcept {
    return SimTime::seconds(static_cast<double>(s));
}
constexpr SimTime operator""_sec(unsigned long long s) noexcept {
    return SimTime::seconds(static_cast<double>(s));
}
constexpr SimTime operator""_msec(long double ms) noexcept {
    return SimTime::millis(static_cast<double>(ms));
}
constexpr SimTime operator""_msec(unsigned long long ms) noexcept {
    return SimTime::millis(static_cast<double>(ms));
}
} // namespace literals

} // namespace routesync::sim
