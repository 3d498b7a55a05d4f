#include "calibration.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "layers.hpp"

namespace routesync::benchmark {

namespace {

/// One pass of the frozen model. Returns a checksum so that nothing is
/// optimised away. Changing this function changes the reference speed
/// of every recorded figure: leave it as it is.
std::uint64_t model_pass() {
    constexpr int kRouters = 24;
    constexpr int kEvents = 64000;
    constexpr double kTp = 121.0;
    constexpr double kTc = 0.11;
    constexpr double kTr = 0.1;
    std::uint64_t s = 0x9E3779B97F4A7C15ULL;
    const auto uniform = [&s] {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return static_cast<double>(s >> 11) * 0x1.0p-53;
    };
    using Timer = std::pair<double, int>;
    std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers;
    std::array<double, kRouters> last_fire{};
    for (int r = 0; r < kRouters; ++r) {
        timers.emplace(uniform() * kTp, r);
    }
    std::vector<std::uint32_t> table(1U << 16, 0U); // 256 KiB
    std::uint64_t sum = 0;
    for (int e = 0; e < kEvents; ++e) {
        const auto [t, r] = timers.top();
        timers.pop();
        int heard = 0;
        for (int o = 0; o < kRouters; ++o) {
            if (o != r && t - last_fire[o] < kTc) {
                ++heard;
            }
        }
        last_fire[r] = t;
        const auto slot = static_cast<std::size_t>(
            (static_cast<std::uint64_t>(t * 1e6) * 0x9E3779B97F4A7C15ULL) >> 48);
        sum += ++table[slot] + static_cast<std::uint64_t>(heard);
        timers.emplace(t + kTp + kTc * (heard + 1) + (uniform() - 0.5) * 2.0 * kTr, r);
    }
    return sum;
}

} // namespace

double calibration_pass() {
    static std::atomic<std::uint64_t> sink{0};
    const auto t0 = Clock::now();
    sink.fetch_add(model_pass(), std::memory_order_relaxed);
    return seconds_between(t0, Clock::now());
}

} // namespace routesync::benchmark
