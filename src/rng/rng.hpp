// Umbrella header for the routesync random-number subsystem.
//
// DefaultEngine is the engine every simulation uses.
#pragma once

#include "rng/distributions.hpp" // IWYU pragma: export
#include "rng/splitmix64.hpp"    // IWYU pragma: export
#include "rng/xoshiro256ss.hpp"  // IWYU pragma: export

namespace routesync::rng {

using DefaultEngine = Xoshiro256ss;

} // namespace routesync::rng
