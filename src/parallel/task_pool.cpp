#include "parallel/task_pool.hpp"

#include <algorithm>
#include <exception>
#include <thread>

namespace routesync::parallel {

std::size_t hardware_jobs() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

TaskPool::TaskPool(std::size_t jobs)
    : jobs_{jobs == 0 ? hardware_jobs() : jobs} {}

bool TaskPool::claim(std::size_t worker, std::size_t max_len,
                     std::size_t& out_lo, std::size_t& out_len) {
    const std::lock_guard<std::mutex> lock{mutex_};
    Range& own = ranges_[worker];
    if (own.lo < own.hi) {
        const std::size_t avail = own.hi - own.lo;
        out_lo = own.lo;
        out_len = avail < max_len ? avail : max_len;
        own.lo += out_len;
        return true;
    }
    // Own range drained: steal the back half of the largest remaining
    // range. The owner keeps consuming its front, so the handoff never
    // contends on a task, and the biggest victim is where the workload's
    // long tail lives.
    std::size_t victim = ranges_.size();
    std::size_t victim_rem = 0;
    for (std::size_t w = 0; w < ranges_.size(); ++w) {
        const std::size_t rem = ranges_[w].hi - ranges_[w].lo;
        if (w != worker && rem > victim_rem) {
            victim = w;
            victim_rem = rem;
        }
    }
    if (victim == ranges_.size()) {
        return false; // pool drained
    }
    Range& v = ranges_[victim];
    const std::size_t take = (victim_rem + 1) / 2; // at least 1
    own.lo = v.hi - take;
    own.hi = v.hi;
    v.hi -= take;
    ++steals_;
    const std::size_t avail = own.hi - own.lo;
    out_lo = own.lo;
    out_len = avail < max_len ? avail : max_len;
    own.lo += out_len;
    return true;
}

std::size_t TaskPool::run(
    std::size_t count, std::size_t chunk,
    const std::function<void(std::size_t lo, std::size_t len)>& body) {
    steals_ = 0;
    if (count == 0) {
        return 0;
    }
    const std::size_t max_len = chunk == 0 ? 1 : chunk;
    const std::size_t jobs = std::min(jobs_, count);
    if (jobs <= 1) {
        // Inline, in index order — the reference execution that every
        // parallel run must reproduce byte for byte.
        for (std::size_t lo = 0; lo < count; lo += max_len) {
            body(lo, std::min(max_len, count - lo));
        }
        return 0;
    }

    // Contiguous initial shards, one per worker; stealing rebalances.
    ranges_.assign(jobs, Range{});
    for (std::size_t w = 0; w < jobs; ++w) {
        ranges_[w] = Range{w * count / jobs, (w + 1) * count / jobs};
    }

    std::exception_ptr first_error;
    std::mutex error_mutex;
    const auto worker = [&](std::size_t w) noexcept {
        std::size_t lo = 0;
        std::size_t len = 0;
        while (claim(w, max_len, lo, len)) {
            try {
                body(lo, len);
            } catch (...) {
                const std::lock_guard<std::mutex> lock{error_mutex};
                if (!first_error) {
                    first_error = std::current_exception();
                }
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs - 1);
    for (std::size_t w = 1; w < jobs; ++w) {
        pool.emplace_back(worker, w);
    }
    worker(0); // the calling thread pulls its weight too
    for (std::thread& t : pool) {
        t.join();
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
    return steals_;
}

} // namespace routesync::parallel
