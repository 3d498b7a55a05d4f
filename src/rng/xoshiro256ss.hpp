// xoshiro256** — the default engine for simulations. Fast, 256-bit state,
// passes BigCrush; seeded from a single 64-bit value via SplitMix64 as its
// authors prescribe.
//
// Reference: Blackman & Vigna, "Scrambled Linear Pseudorandom Number
// Generators", ACM TOMS 2021.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace routesync::rng {

/// xoshiro256** 1.0; satisfies std::uniform_random_bit_generator.
class Xoshiro256ss {
public:
    using result_type = std::uint64_t;

    /// Seeds the 256-bit state by iterating SplitMix64 over `seed`.
    explicit Xoshiro256ss(std::uint64_t seed = 0) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

    /// One step. Defined here so the simulation loops that draw on every
    /// event compile it in.
    result_type operator()() noexcept {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

private:
    std::array<std::uint64_t, 4> s_{};
};

} // namespace routesync::rng
