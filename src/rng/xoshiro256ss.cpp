#include "rng/xoshiro256ss.hpp"

#include "rng/splitmix64.hpp"

namespace routesync::rng {

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) noexcept {
    SplitMix64 mixer{seed};
    for (auto& word : s_) {
        word = mixer();
    }
}

void Xoshiro256ss::long_jump() noexcept {
    static constexpr std::uint64_t kJump[] = {
        0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
        0x77710069854ee241ULL, 0x39109bb02acbe635ULL};

    std::uint64_t s0 = 0;
    std::uint64_t s1 = 0;
    std::uint64_t s2 = 0;
    std::uint64_t s3 = 0;
    for (const std::uint64_t jump : kJump) {
        for (int b = 0; b < 64; ++b) {
            if (jump & (std::uint64_t{1} << b)) {
                s0 ^= s_[0];
                s1 ^= s_[1];
                s2 ^= s_[2];
                s3 ^= s_[3];
            }
            (*this)();
        }
    }
    s_ = {s0, s1, s2, s3};
}

Xoshiro256ss Xoshiro256ss::split() noexcept {
    Xoshiro256ss child = *this;
    long_jump();
    return child;
}

} // namespace routesync::rng
