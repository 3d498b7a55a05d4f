// Host-speed calibration for the routesync benchmark.
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// over minutes (a busy neighbour on the same physical core, a frequency
// change), in CPU time as well as wall time. A calibration pass is a fixed
// piece of work that does not depend on src/: a frozen miniature of the
// Periodic Messages model (timers in a binary heap, xorshift jitter, a
// scan of the other routers' phases, a counter table in L2). Timed between
// the workload's repetitions, it measures how fast the host was at that
// moment, and run.py scales the workload's times by it.
#pragma once

namespace routesync::benchmark {

/// Host seconds of one calibration pass on the calling thread.
[[nodiscard]] double calibration_pass();

} // namespace routesync::benchmark
