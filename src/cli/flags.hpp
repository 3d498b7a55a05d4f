// Command-line flags: one typed table per command, and the one parser
// behind the routesync CLI (tools/), the benches and examples
// (bench/common.hpp) and the scenario registry (src/scenarios/).
// Header-only, so the libraries reach it without depending on the CLI
// layer, and the parsing rules are unit-testable.
//
// A command states its flags once, as a constexpr table:
//
//   inline constexpr cli::FlagSpec kTable[] = {
//       cli::integer("n", "N"), cli::real("tp", "SEC"), cli::boolean("print")};
//
// cli::parse(tokens, {tables...}) checks every token against the tables
// (a braced list or a span of them) and returns the Args the command
// reads its values from; cli::usage() prints the same tables as a flag
// list. A default is stated once, where the value lands
// (`args.real("tp", 121.0)`): the tables hold none.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace routesync::cli {

/// `value` as a base-10 integer in [min, max]; nullopt for an empty
/// value, non-numeric junk (trailing junk included) and a value out of
/// range. The rule behind Kind::Int.
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
/// range, inf and nan. The rule behind Kind::Real.
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
/// The rule behind Kind::Seed.
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

/// What a flag's value is.
enum class Kind : std::uint8_t {
    Bool,   ///< present or absent; never takes a value
    Int,    ///< parse_integer, within the entry's bounds
    Real,   ///< parse_real, within the entry's bounds
    Seed,   ///< parse_seed
    String, ///< any text
    Enum,   ///< one of the '|'-separated choices in FlagSpec::value
};

inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// One flag of a command's table. Build entries with the makers below.
struct FlagSpec {
    std::string_view name; ///< without the leading "--"
    Kind kind;
    /// The value's placeholder in usage() ("N", "SEC", "FILE"); an
    /// Enum's choices, '|'-separated ("red|droptail").
    std::string_view value;
    /// Int and Real bounds; `above` makes `min` exclusive. A String with
    /// min > 0 rejects the empty value.
    double min;
    double max;
    bool above;
};

/// A table: every flag one command (or one part of it) declares.
using Table = std::span<const FlagSpec>;

// Table entries, one maker per kind.
constexpr FlagSpec boolean(std::string_view name) {
    return {name, Kind::Bool, {}, -kUnbounded, kUnbounded, false};
}
/// An integer flag, by default bounded by int's range.
constexpr FlagSpec integer(std::string_view name, std::string_view value,
                           double min = std::numeric_limits<int>::min(),
                           double max = std::numeric_limits<int>::max()) {
    return {name, Kind::Int, value, min, max, false};
}
constexpr FlagSpec real(std::string_view name, std::string_view value) {
    return {name, Kind::Real, value, -kUnbounded, kUnbounded, false};
}
/// A real flag that must be > 0.
constexpr FlagSpec positive(std::string_view name, std::string_view value) {
    return {name, Kind::Real, value, 0.0, kUnbounded, true};
}
constexpr FlagSpec seed(std::string_view name = "seed") {
    return {name, Kind::Seed, "S", 0.0, kUnbounded, false};
}
constexpr FlagSpec text(std::string_view name, std::string_view value,
                        bool non_empty = false) {
    return {name, Kind::String, value, non_empty ? 1.0 : 0.0, kUnbounded, false};
}
constexpr FlagSpec choice(std::string_view name, std::string_view choices) {
    return {name, Kind::Enum, choices, -kUnbounded, kUnbounded, false};
}

/// Whether `value` is one of `choices` ('|'-separated).
inline bool is_choice(std::string_view choices, std::string_view value) {
    for (std::size_t at = 0; at <= choices.size();) {
        const std::size_t bar = std::min(choices.find('|', at), choices.size());
        if (choices.substr(at, bar - at) == value) {
            return true;
        }
        at = bar + 1;
    }
    return false;
}

/// Whether `value` is a valid value of `f` (a Bool takes none).
inline bool valid(const FlagSpec& f, const std::string& value) {
    switch (f.kind) {
    case Kind::Bool:
        return false;
    case Kind::Int: {
        const auto n = parse_integer(value, std::numeric_limits<long>::min(),
                                     std::numeric_limits<long>::max());
        return n && static_cast<double>(*n) >= f.min &&
               static_cast<double>(*n) <= f.max;
    }
    case Kind::Real: {
        const auto x = parse_real(value);
        return x && *x >= f.min && *x <= f.max && !(f.above && *x == f.min);
    }
    case Kind::Seed:
        return parse_seed(value).has_value();
    case Kind::String:
        return !value.empty() || f.min == 0.0;
    case Kind::Enum:
        return is_choice(f.value, value);
    }
    return false;
}

/// What a valid value of `f` is, for error messages ("an integer >= 1").
inline std::string describe(const FlagSpec& f) {
    const auto num = [](double x) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", x);
        return std::string{buf};
    };
    switch (f.kind) {
    case Kind::Int:
        return f.max == kUnbounded
                   ? "an integer >= " + num(f.min)
                   : "an integer in [" + num(f.min) + ", " + num(f.max) + "]";
    case Kind::Real:
        return f.above ? "a number > " + num(f.min) : "a number";
    case Kind::Seed:
        return "an integer in [0, " +
               std::to_string(std::numeric_limits<std::uint64_t>::max()) + "]";
    case Kind::Enum:
        return "one of " + std::string{f.value};
    default:
        return "a non-empty value";
    }
}

class Args;
inline Args parse(std::span<const std::string> tokens, std::span<const Table> tables);

/// The flags one command line gave, read by name and kind. Reading a
/// name no table of the command declares, or as another kind, throws
/// std::logic_error: that is a slip in the program, not in the input.
class Args {
public:
    /// Whether `--name` was given.
    [[nodiscard]] bool has(std::string_view name) const {
        return find(name, std::nullopt) != nullptr;
    }
    /// A Bool flag: given or not.
    [[nodiscard]] bool flag(std::string_view name) const {
        return find(name, Kind::Bool) != nullptr;
    }
    /// An Int flag as T, `fallback` when absent.
    template <typename T = int>
    [[nodiscard]] T integer(std::string_view name, T fallback) const {
        const std::string* v = find(name, Kind::Int);
        if (v == nullptr) {
            return fallback;
        }
        const long n = *parse_integer(*v, std::numeric_limits<long>::min(),
                                      std::numeric_limits<long>::max());
        if (!std::in_range<T>(n)) {
            throw std::logic_error{"--" + std::string{name} +
                                   "'s bounds exceed the type it is read as"};
        }
        return static_cast<T>(n);
    }
    [[nodiscard]] double real(std::string_view name, double fallback) const {
        const std::string* v = find(name, Kind::Real);
        return v == nullptr ? fallback : *parse_real(*v);
    }
    [[nodiscard]] std::uint64_t seed(std::string_view name,
                                     std::uint64_t fallback) const {
        const std::string* v = find(name, Kind::Seed);
        return v == nullptr ? fallback : *parse_seed(*v);
    }
    [[nodiscard]] std::string text(std::string_view name,
                                   std::string fallback = {}) const {
        const std::string* v = find(name, Kind::String);
        return v == nullptr ? std::move(fallback) : *v;
    }
    /// An Enum flag's choice, `fallback` when absent.
    [[nodiscard]] std::string choice(std::string_view name,
                                     std::string fallback) const {
        const std::string* v = find(name, Kind::Enum);
        return v == nullptr ? std::move(fallback) : *v;
    }

private:
    friend Args parse(std::span<const std::string> tokens,
                      std::span<const Table> tables);

    /// The entry declaring `name`; null when no table does.
    [[nodiscard]] const FlagSpec* spec(std::string_view name) const {
        for (const Table table : tables_) {
            for (const FlagSpec& f : table) {
                if (f.name == name) {
                    return &f;
                }
            }
        }
        return nullptr;
    }

    /// `--name`'s value, null when absent.
    [[nodiscard]] const std::string* find(std::string_view name,
                                          std::optional<Kind> kind) const {
        const FlagSpec* f = spec(name);
        if (f == nullptr || (kind && f->kind != *kind)) {
            throw std::logic_error{"--" + std::string{name} +
                                   (f == nullptr ? " is read but not declared"
                                                 : " is read as another kind")};
        }
        const auto it = values_.find(name);
        return it == values_.end() ? nullptr : &it->second;
    }

    std::vector<Table> tables_;
    /// Keyed by the declaring entry's name; the last occurrence wins.
    std::map<std::string_view, std::string, std::less<>> values_;
};

/// Parses `--name value`, `--name=value` and a bare `--name` (Bool only)
/// against `tables`. Throws std::invalid_argument, naming the flag, for
/// an unknown flag, a value given to a Bool, a missing value (none left,
/// or the next token is a flag), a value the entry rejects (junk, out of
/// bounds, an unlisted choice), and for a token that is not a flag.
inline Args parse(std::span<const std::string> tokens, std::span<const Table> tables) {
    Args args;
    args.tables_.assign(tables.begin(), tables.end());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string_view token = tokens[i];
        if (!token.starts_with("--")) {
            throw std::invalid_argument{"unexpected argument: " + tokens[i]};
        }
        const std::size_t eq = token.find('=');
        const std::string_view name =
            token.substr(2, eq == std::string_view::npos ? eq : eq - 2);
        if (name.empty()) {
            throw std::invalid_argument{"empty flag name"};
        }
        const FlagSpec* f = args.spec(name);
        const std::string flag = "--" + std::string{name};
        if (f == nullptr) {
            throw std::invalid_argument{"unknown flag " + flag};
        }
        std::optional<std::string> value;
        if (eq != std::string_view::npos) {
            value = token.substr(eq + 1);
        } else if (i + 1 < tokens.size() && !tokens[i + 1].starts_with("--")) {
            value = tokens[++i];
        }
        if (f->kind == Kind::Bool) {
            if (value) {
                throw std::invalid_argument{flag + " takes no value, got '" +
                                            *value + "'"};
            }
        } else if (!value) {
            throw std::invalid_argument{flag + " needs a value"};
        } else if (!valid(*f, *value)) {
            throw std::invalid_argument{flag + " must be " + describe(*f) +
                                        ", got '" + *value + "'"};
        }
        args.values_.insert_or_assign(f->name, value.value_or(""));
    }
    return args;
}
inline Args parse(std::span<const std::string> tokens,
                  std::initializer_list<Table> tables) {
    return parse(tokens, std::span<const Table>{tables.begin(), tables.size()});
}

/// The flags of `tables` as "[--name VALUE]" items, wrapped before
/// column 80; a continuation line starts with `indent` spaces, and the
/// first is taken to start at that column too.
inline std::string usage(std::span<const Table> tables, std::size_t indent = 0) {
    std::string out;
    std::size_t column = indent;
    for (const Table table : tables) {
        for (const FlagSpec& f : table) {
            std::string item = "[--" + std::string{f.name};
            if (f.kind != Kind::Bool) {
                item += ' ';
                item += f.value;
            }
            item += ']';
            if (!out.empty()) {
                const bool wrap = column + 1 + item.size() > 79;
                out += wrap ? "\n" + std::string(indent, ' ') : " ";
                column = wrap ? indent : column + 1;
            }
            out += item;
            column += item.size();
        }
    }
    return out;
}
inline std::string usage(std::initializer_list<Table> tables, std::size_t indent = 0) {
    return usage(std::span<const Table>{tables.begin(), tables.size()}, indent);
}

} // namespace routesync::cli
