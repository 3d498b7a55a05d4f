// Umbrella header for the routesync::parallel subsystem: the
// work-stealing TaskPool with its index-ordered map_index
// (task_pool.hpp), and the PM-trial sweep on top of it
// (sweep_scheduler.hpp).
#pragma once

#include "parallel/sweep_scheduler.hpp" // IWYU pragma: export
#include "parallel/task_pool.hpp"       // IWYU pragma: export
