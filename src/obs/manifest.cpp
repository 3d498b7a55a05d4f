#include "obs/manifest.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/build_info.hpp"
#include "obs/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace routesync::obs {

std::uint64_t peak_rss_bytes() noexcept {
#if defined(__unix__) || defined(__APPLE__)
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0) {
        return 0;
    }
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss); // bytes on Darwin
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024U; // KiB on Linux
#endif
#else
    return 0;
#endif
}

std::uint64_t fnv1a(const std::string& bytes) noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

std::optional<std::uint64_t> fnv1a_file(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) {
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return fnv1a(buf.str());
}

void Manifest::set_config(const std::string& key, const std::string& value) {
    config.emplace_back(key, value);
}

void Manifest::set_config(const std::string& key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    config.emplace_back(key, buf);
}

void Manifest::set_config(const std::string& key, std::uint64_t value) {
    config.emplace_back(key, std::to_string(value));
}

void Manifest::set_config(const std::string& key, int value) {
    config.emplace_back(key, std::to_string(value));
}

void Manifest::set_config(const std::string& key, bool value) {
    config.emplace_back(key, value ? "true" : "false");
}

std::string Manifest::to_json() const {
    JsonWriter w;
    w.begin_object();
    w.key("tool");
    w.value(tool);
    w.key("description");
    w.value(description);
    w.key("git_describe");
    w.value(kGitDescribe);
    w.key("build_type");
    w.value(kBuildType);
    w.key("seeds");
    w.begin_array();
    for (const std::uint64_t s : seeds) {
        w.value(s);
    }
    w.end_array();
    w.key("jobs");
    w.value(static_cast<std::uint64_t>(jobs));
    w.key("config");
    w.begin_object();
    for (const auto& [key, value] : config) {
        w.key(key);
        w.value(value);
    }
    w.end_object();
    // Embed the metrics block verbatim (it is already a JSON object).
    std::string out = w.str();
    out += ", \"metrics\": ";
    out += metrics.to_json();
    out += ", \"profile\": ";
    out += profile.has_value() ? profile->to_json() : "null";
    out += ", \"trace\": ";
    if (trace.has_value()) {
        JsonWriter tw;
        tw.begin_object();
        tw.key("path");
        tw.value(trace->path);
        tw.key("events");
        tw.value(trace->events);
        tw.key("offered");
        tw.value(trace->offered);
        tw.key("dropped");
        tw.value(trace->dropped);
        tw.key("fnv1a");
        if (trace->fnv1a.has_value()) {
            char buf[24];
            std::snprintf(buf, sizeof buf, "%016llx",
                          static_cast<unsigned long long>(*trace->fnv1a));
            tw.value(std::string{buf});
        } else {
            tw.null();
        }
        tw.end_object();
        out += tw.str();
    } else {
        out += "null";
    }
    out += ", \"wall_seconds\": " + json_number(wall_seconds);
    out += ", \"sim_seconds\": " + json_number(sim_seconds);
    out += ", \"peak_rss_bytes\": " + std::to_string(peak_rss_bytes);
    out += ", \"failed_checks\": " + std::to_string(failed_checks);
    out += "}\n";
    return out;
}

} // namespace routesync::obs
