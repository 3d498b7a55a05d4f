// Minimal --flag/value command-line parsing: the one set of flag
// readers behind the routesync CLI (tools/), the benches (bench/) and
// the scenario registry's builtin runners (src/scenarios/). Header-only,
// so the libraries reach it without depending on the CLI layer, and the
// parsing rules are unit-testable.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

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

/// `value` as a base-10 integer in [min, max]; nullopt for non-numeric
/// junk and for a value out of range. The integer rule behind flag_jobs
/// and flag_count.
inline std::optional<long> parse_integer(const std::string& value, long min,
                                         long max) {
    char* end = nullptr;
    const long n = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || n < min || n > max) {
        return std::nullopt;
    }
    return n;
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
    const auto n = parse_integer(it->second, 0, std::numeric_limits<long>::max());
    if (!n) {
        throw std::invalid_argument{
            "--jobs must be a non-negative integer (0 = auto-detect), got '" +
            it->second + "'"};
    }
    return *n == 0 ? fallback : static_cast<std::size_t>(*n);
}

/// Parses an integer count flag `--key`: absent -> `fallback`. A value
/// below `min` (0 or 1), beyond int, or with non-numeric junk throws
/// with a clear message, like --jobs.
inline int flag_count(const Flags& flags, const std::string& key, int fallback,
                      int min) {
    const auto it = flags.find(key);
    if (it == flags.end()) {
        return fallback;
    }
    const auto n = parse_integer(it->second, min, std::numeric_limits<int>::max());
    if (!n) {
        throw std::invalid_argument{
            "--" + key + " must be a " +
            (min > 0 ? "positive" : "non-negative") + " integer, got '" +
            it->second + "'"};
    }
    return static_cast<int>(*n);
}

/// Parses `--trials`: repetition count for multi-trial scenario runs and
/// sweeps. Absent -> `fallback`; must be >= 1 when given (a zero-trial
/// run is a no-op the user almost certainly did not mean).
inline int flag_trials(const Flags& flags, int fallback) {
    return flag_count(flags, "trials", fallback, 1);
}

/// Throws std::invalid_argument naming the first flag in `flags` (in
/// name order) that is not in `known` — a command that checks this
/// cannot drop a typo or a retired flag without a word.
inline void reject_unknown_flags(const Flags& flags,
                                 std::span<const std::string_view> known) {
    for (const auto& entry : flags) {
        if (std::find(known.begin(), known.end(), entry.first) == known.end()) {
            throw std::invalid_argument{"unknown flag --" + entry.first};
        }
    }
}

} // namespace routesync::cli
