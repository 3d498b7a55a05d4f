// Umbrella header for the routesync::parallel subsystem: deterministic
// fork-join primitives (parallel_for.hpp) and the sweep-wide
// work-stealing scheduler (sweep_scheduler.hpp).
#pragma once

#include "parallel/parallel_for.hpp"    // IWYU pragma: export
#include "parallel/sweep_scheduler.hpp" // IWYU pragma: export
