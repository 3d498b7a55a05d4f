// Wall-clock self-profiler: RAII scoped timers aggregated per label.
//
// Usage at an instrumentation site:
//
//   void DistanceVectorAgent::process_update(...) {
//       OBS_PROF_SCOPE("dv.process_update");
//       ...
//   }
//
// The scope records one (count, total, max) sample under its label into
// the thread's current Profiler. With no profiler installed — the
// default — the scope's constructor is a single thread-local load plus
// branch and its destructor a branch, matching the null-tracer discipline
// of the emit sites (docs/PERFORMANCE.md).
//
// Labels are dot-separated paths ("dv.process_update"); ProfileSnapshot
// keys them in a std::map, so serialized profiles are a deterministic
// tree ordered by label. Wall-clock *durations* are inherently
// nondeterministic; what the determinism contract covers is the key set
// and the counts: per-trial snapshots merged in submission order (like
// metrics) carry identical labels and counts for every --jobs value.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace routesync::obs {

struct ProfileEntry {
    std::uint64_t count = 0;
    double total_sec = 0.0;
    double max_sec = 0.0;
};

/// Plain-data aggregate of scoped-timer samples, keyed by label. The
/// exchange format manifests embed and trial drivers merge.
struct ProfileSnapshot {
    std::map<std::string, ProfileEntry> entries;

    /// Folds `other` into this snapshot: counts and totals sum, max takes
    /// the max. A pure function of the snapshot sequence, like
    /// MetricsSnapshot::merge.
    void merge(const ProfileSnapshot& other);

    [[nodiscard]] bool empty() const noexcept { return entries.empty(); }

    /// The snapshot as a JSON object string:
    /// {"label": {"count": N, "total_sec": X, "max_sec": X}, ...}
    [[nodiscard]] std::string to_json() const;

    /// Human-readable table, labels indented by dot depth (the profile
    /// tree --profile prints). Entries sorted by label.
    [[nodiscard]] std::string format() const;
};

class Profiler {
public:
    void record(const char* label, double seconds);

    [[nodiscard]] ProfileSnapshot snapshot() const;
    void clear() { entries_.clear(); }

    /// The calling thread's active profiler, or null (the default) when
    /// profiling is off — the single branch every OBS_PROF_SCOPE tests.
    [[nodiscard]] static Profiler* current() noexcept { return current_; }

    /// Installs `p` as the thread's profiler; returns the previous one so
    /// scoped installers can restore it. Pass nullptr to disable.
    static Profiler* set_current(Profiler* p) noexcept {
        Profiler* prev = current_;
        current_ = p;
        return prev;
    }

    /// Process-wide enable flag: trial drivers consult it to decide
    /// whether to install a per-trial profiler on their worker threads
    /// (thread-locals don't propagate). Off by default.
    static void set_process_enabled(bool on) noexcept;
    [[nodiscard]] static bool process_enabled() noexcept;

private:
    // constinit: constant-initialized, so no TLS wrapper or init function
    // is emitted and every access is a plain thread-local load.
    static constinit inline thread_local Profiler* current_ = nullptr;
    std::map<std::string, ProfileEntry> entries_;
};

/// Installs a profiler for the current scope and restores the previous
/// one on exit — how run_experiment gives each trial its own profile.
class ScopedProfilerInstall {
public:
    explicit ScopedProfilerInstall(Profiler& p) noexcept
        : prev_{Profiler::set_current(&p)} {}
    ~ScopedProfilerInstall() { Profiler::set_current(prev_); }

    ScopedProfilerInstall(const ScopedProfilerInstall&) = delete;
    ScopedProfilerInstall& operator=(const ScopedProfilerInstall&) = delete;

private:
    Profiler* prev_;
};

/// The RAII timer OBS_PROF_SCOPE expands to. `label` must be a string
/// literal (it is not copied).
class ScopedProfile {
public:
    explicit ScopedProfile(const char* label) noexcept
        : profiler_{Profiler::current()} {
        if (profiler_ != nullptr) {
            label_ = label;
            start_ = std::chrono::steady_clock::now();
        }
    }
    ~ScopedProfile() {
        if (profiler_ != nullptr) {
            const auto elapsed = std::chrono::steady_clock::now() - start_;
            profiler_->record(label_,
                              std::chrono::duration<double>(elapsed).count());
        }
    }

    ScopedProfile(const ScopedProfile&) = delete;
    ScopedProfile& operator=(const ScopedProfile&) = delete;

private:
    Profiler* profiler_;
    const char* label_ = nullptr;
    std::chrono::steady_clock::time_point start_{};
};

} // namespace routesync::obs

#define OBS_PROF_CONCAT_IMPL(a, b) a##b
#define OBS_PROF_CONCAT(a, b) OBS_PROF_CONCAT_IMPL(a, b)
/// Times the enclosing scope under `label` (a string literal).
#define OBS_PROF_SCOPE(label) \
    ::routesync::obs::ScopedProfile OBS_PROF_CONCAT(obs_prof_scope_, \
                                                    __LINE__){label}
