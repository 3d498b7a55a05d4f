// Umbrella header for the statistics subsystem.
#pragma once

#include "stats/autocorrelation.hpp" // IWYU pragma: export
#include "stats/fft.hpp"             // IWYU pragma: export
#include "stats/periodogram.hpp"     // IWYU pragma: export
#include "stats/phase_cluster.hpp"   // IWYU pragma: export
#include "stats/quantiles.hpp"       // IWYU pragma: export
#include "stats/running_stats.hpp"   // IWYU pragma: export
