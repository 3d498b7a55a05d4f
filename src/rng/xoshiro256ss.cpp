#include "rng/xoshiro256ss.hpp"

#include "rng/splitmix64.hpp"

namespace routesync::rng {

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) noexcept {
    SplitMix64 mixer{seed};
    for (auto& word : s_) {
        word = mixer();
    }
}

} // namespace routesync::rng
