// Minimal --flag/value command-line parsing: the one set of flag
// readers behind the routesync CLI (tools/), the benches (bench/) and
// the scenario registry's builtin runners (src/scenarios/). Header-only,
// so the libraries reach it without depending on the CLI layer, and the
// parsing rules are unit-testable.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

inline bool flag_b(const Flags& flags, const std::string& key) {
    return flags.contains(key);
}

inline std::string flag_s(const Flags& flags, const std::string& key,
                          const std::string& fallback = {}) {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
}

/// `value` as a base-10 integer in [min, max]; nullopt for an empty
/// value, non-numeric junk (trailing junk included) and a value out of
/// range. The integer rule behind flag_i, flag_jobs and flag_count.
inline std::optional<long> parse_integer(const std::string& value, long min,
                                         long max) {
    char* end = nullptr;
    errno = 0;
    const long n = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE || n < min ||
        n > max) {
        return std::nullopt;
    }
    return n;
}

/// `value` as a finite real number (strtod syntax: "0.11", "1e5");
/// nullopt for an empty value, trailing junk, a value beyond double's
/// range, inf and nan. The rule behind flag_d.
inline std::optional<double> parse_real(const std::string& value) {
    char* end = nullptr;
    errno = 0;
    const double x = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        !std::isfinite(x)) {
        return std::nullopt;
    }
    return x;
}

/// `value` as a 64-bit unsigned seed: decimal digits only, 0 to
/// 2^64 - 1; nullopt for an empty value, a sign, junk and a value past
/// 2^64 - 1. strtoull would read "-1" as 2^64 - 1, so it is not used.
inline std::optional<std::uint64_t> parse_seed(const std::string& value) {
    if (value.empty()) {
        return std::nullopt;
    }
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t seed = 0;
    for (const char c : value) {
        if (c < '0' || c > '9') {
            return std::nullopt;
        }
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (seed > (kMax - digit) / 10) {
            return std::nullopt;
        }
        seed = seed * 10 + digit;
    }
    return seed;
}

/// Parses `--seed`: absent -> `fallback`. Every seed field is 64-bit
/// unsigned; a value parse_seed rejects throws rather than run a seed
/// nobody asked for.
inline std::uint64_t flag_seed(const Flags& flags, std::uint64_t fallback) {
    const auto it = flags.find("seed");
    if (it == flags.end()) {
        return fallback;
    }
    const auto seed = parse_seed(it->second);
    if (!seed) {
        throw std::invalid_argument{
            "--seed must be an integer in [0, " +
            std::to_string(std::numeric_limits<std::uint64_t>::max()) + "], got '" +
            it->second + "'"};
    }
    return *seed;
}

/// Parses an integer flag `--key`: absent -> `fallback`. A value that is
/// not an int (empty, junk such as "5x", out of range) throws, like
/// --jobs: a run with a silently truncated value would be worse than an
/// error.
inline int flag_i(const Flags& flags, const std::string& key, int fallback) {
    const auto it = flags.find(key);
    if (it == flags.end()) {
        return fallback;
    }
    const auto n = parse_integer(it->second, std::numeric_limits<int>::min(),
                                 std::numeric_limits<int>::max());
    if (!n) {
        throw std::invalid_argument{"--" + key + " must be an integer in [" +
                                    std::to_string(std::numeric_limits<int>::min()) +
                                    ", " +
                                    std::to_string(std::numeric_limits<int>::max()) +
                                    "], got '" + it->second + "'"};
    }
    return static_cast<int>(*n);
}

/// Parses a real-number flag `--key`: absent -> `fallback`. A value that
/// is not a finite number (empty, junk such as "0.1abc", out of range)
/// throws.
inline double flag_d(const Flags& flags, const std::string& key, double fallback) {
    const auto it = flags.find(key);
    if (it == flags.end()) {
        return fallback;
    }
    const auto x = parse_real(it->second);
    if (!x) {
        throw std::invalid_argument{"--" + key + " must be a number, got '" +
                                    it->second + "'"};
    }
    return *x;
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
