// TaskPool: the work-stealing index pool behind every parallel fan-out,
// and map_index, the submission-ordered map over it.
//
// The pool schedules *indices*, nothing else: run(count, chunk, body)
// partitions [0, count) into contiguous chunks of at most `chunk` indices
// and invokes `body(lo, len)` for each, across `jobs` workers. It is the
// only place that starts worker threads; SweepScheduler (PM trials) and
// run_scenario_sweep (shared-LAN cells) call it directly because they
// report steals, everything else goes through map_index.
//
// Scheduling: each worker owns a contiguous index range. A worker
// consumes its range front to back; when empty it steals the back half
// of the largest remaining range. Claims are O(jobs) under ONE global
// mutex — tasks are entire experiments (>=100us, usually way more), so
// the lock is uncontended noise, and a single mutex keeps the stealing
// logic obviously correct.
//
// Determinism contract: the pool decides WHO runs a chunk and WHEN,
// never what the chunk computes. Callers that (a) derive each task's
// inputs purely from its index and (b) write each result to a slot
// addressed by its index get byte-identical output for every jobs
// value — stealing changes the thread, not the task. map_index is that
// pattern packaged: it is what lets higher layers promise "--jobs N
// output is byte-identical to --jobs 1".
//
// Exceptions: with jobs <= 1 the inline loop propagates immediately.
// With workers, the first chunk exception is captured and rethrown
// after all workers join (remaining chunks still run — a sweep's tasks
// are independent, and tearing down mid-flight would discard work).
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <type_traits>
#include <vector>

namespace routesync::parallel {

/// Default worker count: the hardware concurrency, or 1 when the runtime
/// cannot tell (hardware_concurrency() may legitimately return 0).
[[nodiscard]] std::size_t hardware_jobs() noexcept;

class TaskPool {
public:
    /// `jobs` worker threads. 0 = hardware concurrency; 1 = run inline
    /// on the calling thread, no threads.
    explicit TaskPool(std::size_t jobs);

    /// Effective worker count (never 0).
    [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }

    /// Runs `body(lo, len)` over chunks covering [0, count), len <=
    /// chunk (chunk == 0 is treated as 1). Returns the number of steals
    /// performed (0 under jobs = 1). Rethrows the first chunk exception
    /// after the pool drains.
    std::size_t run(std::size_t count, std::size_t chunk,
                    const std::function<void(std::size_t lo, std::size_t len)>&
                        body);

private:
    struct Range {
        std::size_t lo = 0;
        std::size_t hi = 0;
    };

    /// Claims the next chunk of up to `max_len` contiguous indices for
    /// `worker` (own range front, then steal). Returns false when the
    /// pool is drained. A chunk never spans two workers' ranges, so
    /// stealing still rebalances at chunk granularity.
    [[nodiscard]] bool claim(std::size_t worker, std::size_t max_len,
                             std::size_t& out_lo, std::size_t& out_len);

    std::size_t jobs_;
    std::mutex mutex_; ///< guards ranges_ and steals_ during run()
    std::vector<Range> ranges_;
    std::size_t steals_ = 0;
};

/// Maps `fn` over [0, count) on a TaskPool of `jobs` workers (0 =
/// hardware concurrency), one index per claim, and returns the results
/// **in index order**, regardless of which thread computed which index.
/// R must be default-constructible (elements are pre-sized, then
/// assigned in place).
template <typename R, typename F>
[[nodiscard]] std::vector<R> map_index(std::size_t count, std::size_t jobs, F&& fn) {
    static_assert(std::is_convertible_v<std::invoke_result_t<F&, std::size_t>, R>,
                  "map_index callable must return a value convertible to R");
    std::vector<R> out(count);
    TaskPool pool{jobs};
    (void)pool.run(count, 1, [&](std::size_t lo, std::size_t len) {
        for (std::size_t i = lo; i < lo + len; ++i) {
            out[i] = fn(i);
        }
    });
    return out;
}

} // namespace routesync::parallel
