#include "obs/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "obs/json.hpp"

namespace routesync::obs {

namespace {
std::atomic<bool> g_process_enabled{false};
} // namespace

void Profiler::set_process_enabled(bool on) noexcept {
    g_process_enabled.store(on, std::memory_order_relaxed);
}

bool Profiler::process_enabled() noexcept {
    return g_process_enabled.load(std::memory_order_relaxed);
}

void Profiler::record(const char* label, double seconds) {
    ProfileEntry& e = entries_[label];
    ++e.count;
    e.total_sec += seconds;
    e.max_sec = std::max(e.max_sec, seconds);
}

ProfileSnapshot Profiler::snapshot() const {
    ProfileSnapshot snap;
    snap.entries = entries_;
    return snap;
}

void ProfileSnapshot::merge(const ProfileSnapshot& other) {
    for (const auto& [label, e] : other.entries) {
        ProfileEntry& mine = entries[label];
        mine.count += e.count;
        mine.total_sec += e.total_sec;
        mine.max_sec = std::max(mine.max_sec, e.max_sec);
    }
}

std::string ProfileSnapshot::to_json() const {
    JsonWriter w;
    w.begin_object();
    for (const auto& [label, e] : entries) {
        w.key(label);
        w.begin_object();
        w.key("count");
        w.value(e.count);
        w.key("total_sec");
        w.value(e.total_sec);
        w.key("max_sec");
        w.value(e.max_sec);
        w.end_object();
    }
    w.end_object();
    return w.str();
}

std::string ProfileSnapshot::format() const {
    std::string out;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-40s %10s %12s %12s %12s\n", "label",
                  "count", "total_ms", "mean_us", "max_us");
    out += buf;
    for (const auto& [label, e] : entries) {
        // Indent by dot depth so the sorted labels read as a tree.
        const auto depth = static_cast<int>(
            std::count(label.begin(), label.end(), '.'));
        std::string shown(static_cast<std::size_t>(depth) * 2, ' ');
        shown += label;
        const double mean_us =
            e.count > 0 ? e.total_sec * 1e6 / static_cast<double>(e.count) : 0.0;
        std::snprintf(buf, sizeof buf, "%-40s %10llu %12.3f %12.3f %12.3f\n",
                      shown.c_str(), static_cast<unsigned long long>(e.count),
                      e.total_sec * 1e3, mean_us, e.max_sec * 1e6);
        out += buf;
    }
    return out;
}

} // namespace routesync::obs
