// Minimal --flag/value command-line parsing for the routesync CLI.
// Separated from the binary so the parsing rules are unit-testable.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

namespace routesync::cli {

using Flags = std::map<std::string, std::string>;

/// Parses `--name value` and `--name=value` flags starting at
/// argv[first]. A flag followed by another flag (or by nothing) is
/// boolean and gets the value "1". Non-flag tokens throw.
inline Flags parse_flags(int argc, char** argv, int first) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            throw std::invalid_argument{"unexpected argument: " + arg};
        }
        arg.erase(0, 2);
        if (arg.empty()) {
            throw std::invalid_argument{"empty flag name"};
        }
        if (const auto eq = arg.find('='); eq != std::string::npos) {
            if (eq == 0) {
                throw std::invalid_argument{"empty flag name"};
            }
            flags[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            flags.insert_or_assign(arg, std::string{argv[++i]});
        } else {
            flags.insert_or_assign(arg, std::string{"1"});
        }
    }
    return flags;
}

inline double flag_d(const Flags& flags, const std::string& key, double fallback) {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
}

inline int flag_i(const Flags& flags, const std::string& key, int fallback) {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atoi(it->second.c_str());
}

inline bool flag_b(const Flags& flags, const std::string& key) {
    return flags.contains(key);
}

inline std::string flag_s(const Flags& flags, const std::string& key,
                          const std::string& fallback = {}) {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
}

/// Parses `--jobs`: worker-thread count for parallel sweeps. Absent or
/// `--jobs 0` -> `fallback` (callers typically pass
/// parallel::hardware_jobs(), so 0 means "auto-detect"). Negatives and
/// non-numeric junk throw with a clear message — a silently-serial or
/// zero-thread run would be worse than an error.
inline std::size_t flag_jobs(const Flags& flags, std::size_t fallback) {
    const auto it = flags.find("jobs");
    if (it == flags.end()) {
        return fallback;
    }
    const std::string& value = it->second;
    char* end = nullptr;
    const long n = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || n < 0) {
        throw std::invalid_argument{
            "--jobs must be a non-negative integer (0 = auto-detect), got '" +
            value + "'"};
    }
    return n == 0 ? fallback : static_cast<std::size_t>(n);
}

/// Parses `--trials`: repetition count for multi-trial scenario runs and
/// sweeps. Absent -> `fallback`; must be >= 1 when given (a zero-trial
/// run is a no-op the user almost certainly did not mean). Non-numeric
/// junk throws, like --jobs.
inline int flag_trials(const Flags& flags, int fallback) {
    const auto it = flags.find("trials");
    if (it == flags.end()) {
        return fallback;
    }
    const std::string& value = it->second;
    char* end = nullptr;
    const long n = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || n < 1) {
        throw std::invalid_argument{
            "--trials must be a positive integer, got '" + value + "'"};
    }
    return static_cast<int>(n);
}

/// Parses `--batch`: trials per claim in parallel sweeps, run as the
/// lanes of one PM kernel.
/// Absent -> `fallback`; `--batch 0` stays 0 ("auto-tune from the sweep
/// shape" — unlike --jobs, 0 is a meaningful value the scheduler
/// resolves itself). Negatives and non-numeric junk throw.
inline std::size_t flag_batch(const Flags& flags, std::size_t fallback) {
    const auto it = flags.find("batch");
    if (it == flags.end()) {
        return fallback;
    }
    const std::string& value = it->second;
    char* end = nullptr;
    const long n = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || n < 0) {
        throw std::invalid_argument{
            "--batch must be a non-negative integer (0 = auto), got '" +
            value + "'"};
    }
    return static_cast<std::size_t>(n);
}

} // namespace routesync::cli
