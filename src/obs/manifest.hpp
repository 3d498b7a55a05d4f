// Run manifests: a self-describing JSON record written next to every
// bench/scenario output, so a BENCH_*.json or figure file can always be
// traced back to the binary, build, seeds, and configuration that
// produced it. A manifest is filled through RunContext::manifest() and
// written by RunContext::write_manifest(), which seals it first (metrics,
// trace, wall time, peak RSS): no writer can skip that step.
//
// Schema (tools/validate_trace.py is the executable reference):
//   {
//     "tool": "...", "description": "...",
//     "git_describe": "...", "build_type": "...",
//     "seeds": [..], "jobs": N,
//     "config": { "<key>": "<value>", ... },
//     "metrics": { counters/gauges/distributions },
//     "profile": { "<label>": {count, total_sec, max_sec}, ... } | null,
//     "trace": { "path": "...", "events": N, "offered": N, "dropped": N,
//                "fnv1a": "<hex>" } | null,
//     "wall_seconds": X, "sim_seconds": X, "peak_rss_bytes": N,
//     "failed_checks": N
//   }
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace routesync::obs {

/// FNV-1a over a byte string — the repo's standard content hash (the
/// same function determinism_test applies to figure series).
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes) noexcept;

/// FNV-1a of a file's contents; std::nullopt if the file cannot be read.
[[nodiscard]] std::optional<std::uint64_t> fnv1a_file(const std::string& path);

/// The process's peak resident set size in bytes (getrusage ru_maxrss),
/// 0 where the platform cannot report it. A high-water mark, not a
/// current level — the number a metro-scale memory budget wants.
[[nodiscard]] std::uint64_t peak_rss_bytes() noexcept;

struct TraceInfo {
    std::string path;
    std::uint64_t events = 0;  ///< events the tracer stamped
    std::uint64_t offered = 0; ///< events the sink saw (accepted or dropped)
    std::uint64_t dropped = 0; ///< events the sink discarded (ring overflow)
    std::optional<std::uint64_t> fnv1a; ///< hash of the written JSONL bytes
};

struct Manifest {
    std::string tool;
    std::string description;
    std::vector<std::uint64_t> seeds;
    std::size_t jobs = 1;
    /// Flattened config struct: insertion-ordered key/value pairs (kept
    /// as strings so any config type can participate).
    std::vector<std::pair<std::string, std::string>> config;
    MetricsSnapshot metrics;
    /// Present when the run was profiled (--profile).
    std::optional<ProfileSnapshot> profile;
    std::optional<TraceInfo> trace;
    double wall_seconds = 0.0;
    double sim_seconds = 0.0;
    /// Process-wide peak RSS when the manifest was sealed (finish()).
    std::uint64_t peak_rss_bytes = 0;
    int failed_checks = 0;

    void set_config(const std::string& key, const std::string& value);
    void set_config(const std::string& key, double value);
    void set_config(const std::string& key, std::uint64_t value);
    void set_config(const std::string& key, int value);
    void set_config(const std::string& key, bool value);

    /// The manifest as a JSON document (git describe and build type are
    /// filled in from the compiled-in build info).
    [[nodiscard]] std::string to_json() const;
};

} // namespace routesync::obs
