// Metrics registry: named counters, gauges, and distributions for one
// run, with plain-data snapshots that merge deterministically.
//
// The registry is the accumulation side (cheap increments during a run);
// MetricsSnapshot is the exchange format: what run manifests embed and
// what parallel::merge_trial_metrics merges across trials. Merging is
// defined so that the result is a pure function of the snapshot
// *sequence* — sum for counters, Welford-merge for distributions
// (reusing stats::RunningStats), last-writer-wins for gauges — so a
// sweep merged in submission order produces identical output for every
// --jobs value.
//
// Names sort lexicographically in snapshots (std::map), so serialized
// metric blocks are diffable across runs and builds.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "stats/running_stats.hpp"

namespace routesync::obs {

struct MetricsSnapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, stats::RunningStats> distributions;

    /// Merges `other` into this snapshot (see file comment for the
    /// per-kind rules).
    void merge(const MetricsSnapshot& other);

    [[nodiscard]] bool operator==(const MetricsSnapshot& other) const;

    /// The snapshot as a JSON object string (the "metrics" block of a
    /// manifest).
    [[nodiscard]] std::string to_json() const;
};

class MetricsRegistry {
public:
    /// Named counter cell; creates it at zero on first use. The returned
    /// reference stays valid for the registry's lifetime.
    std::uint64_t& counter(const std::string& name) { return counters_[name]; }
    void add(const std::string& name, std::uint64_t delta) { counters_[name] += delta; }

    /// Named gauge (last value wins).
    void set_gauge(const std::string& name, double value) { gauges_[name] = value; }

    /// Named streaming distribution (mean/stddev/min/max without samples).
    stats::RunningStats& distribution(const std::string& name) {
        return distributions_[name];
    }
    void observe(const std::string& name, double x) { distributions_[name].add(x); }

    [[nodiscard]] MetricsSnapshot snapshot() const;

private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, stats::RunningStats> distributions_;
};

} // namespace routesync::obs
