#include "obs/trace_reader.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <type_traits>

namespace routesync::obs {

namespace {

// Minimal strict scanner over one JSONL line. Field order and whitespace
// are free; everything else (unknown keys, missing fields, strings where
// numbers belong) is an error.
struct Cursor {
    const std::string& s;
    std::size_t i = 0;

    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error{"TraceReader: " + what + " at column " +
                                 std::to_string(i + 1)};
    }

    void skip_ws() {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) {
            ++i;
        }
    }

    void expect(char c) {
        skip_ws();
        if (i >= s.size() || s[i] != c) {
            fail(std::string{"expected '"} + c + "'");
        }
        ++i;
    }

    [[nodiscard]] bool peek_is(char c) {
        skip_ws();
        return i < s.size() && s[i] == c;
    }

    [[nodiscard]] std::string string_value() {
        expect('"');
        const std::size_t start = i;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                fail("escape sequences are not used in traces");
            }
            ++i;
        }
        if (i >= s.size()) {
            fail("unterminated string");
        }
        std::string out = s.substr(start, i - start);
        ++i; // closing quote
        return out;
    }

    /// The raw token of a JSON number ([-+0-9.eE]+).
    [[nodiscard]] std::string number_token() {
        skip_ws();
        const std::size_t start = i;
        while (i < s.size() &&
               (s[i] == '-' || s[i] == '+' || s[i] == '.' || s[i] == 'e' ||
                s[i] == 'E' || (s[i] >= '0' && s[i] <= '9'))) {
            ++i;
        }
        if (i == start) {
            fail("expected a number");
        }
        return s.substr(start, i - start);
    }
};

// A number the event cannot hold is rejected, never clamped or wrapped:
// the error points at the token's first column.
[[noreturn]] void fail_at_token(Cursor& c, const std::string& tok,
                                const std::string& what) {
    c.i -= tok.size();
    c.fail(what);
}

/// A finite double. The token cannot spell inf or nan, so an infinite
/// result means the value is past double's range ("1e400").
double parse_double(Cursor& c, const char* field) {
    const std::string tok = c.number_token();
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
        fail_at_token(c, tok, std::string{"malformed number in \""} + field + "\"");
    }
    if (std::isinf(v)) {
        fail_at_token(c, tok, std::string{"\""} + field + "\" is out of range");
    }
    return v;
}

/// An integer within Int's range: the seq a tracer stamps runs to
/// 2^64 - 1, a node id is 32-bit, the `a` slot 64-bit.
template <typename Int>
Int parse_int(Cursor& c, const char* field) {
    const std::string tok = c.number_token();
    if (tok.find_first_of(".eE") != std::string::npos) {
        fail_at_token(c, tok, std::string{"\""} + field + "\" must be an integer");
    }
    if (std::is_unsigned_v<Int> && tok.front() == '-') {
        fail_at_token(c, tok, std::string{"\""} + field + "\" must be >= 0");
    }
    Int v{};
    const char* last = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), last, v);
    if (ec == std::errc::result_out_of_range) {
        fail_at_token(c, tok, std::string{"\""} + field + "\" is out of range");
    }
    if (ec != std::errc{} || ptr != last) {
        fail_at_token(c, tok, std::string{"malformed integer in \""} + field + "\"");
    }
    return v;
}

/// A number as an error message spells it: the shortest text that reads
/// back as the same value.
template <typename T>
std::string number_text(T v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Holds one slot of an event to its row of kTraceEvents; the error names
/// the type, the slot and the row's range.
template <typename T>
void check_slot(const TraceEventSpec& spec, const char* name, const Slot& rule, T v) {
    const auto d = static_cast<double>(v);
    if (!(d >= rule.lo && d <= rule.hi) || (rule.integral && d != std::trunc(d))) {
        throw std::runtime_error{"TraceReader: " + std::string{spec.name} + " \"" +
                                 name + "\" is " + number_text(v) + ", outside " +
                                 (rule.integral ? "the integers in [" : "[") +
                                 number_text(rule.lo) + ", " + number_text(rule.hi) +
                                 "]"};
    }
}

} // namespace

TraceEvent TraceReader::parse_line(const std::string& line) {
    Cursor c{line};
    c.expect('{');

    TraceEvent event;
    bool have_seq = false, have_t = false, have_type = false, have_node = false,
         have_a = false, have_b = false, have_x = false;

    if (!c.peek_is('}')) {
        for (;;) {
            const std::string key = c.string_value();
            c.expect(':');
            const auto take = [&](bool& have) {
                if (have) {
                    c.fail("duplicate field \"" + key + "\"");
                }
                have = true;
            };
            if (key == "seq") {
                take(have_seq);
                event.seq = parse_int<std::uint64_t>(c, "seq");
            } else if (key == "t") {
                take(have_t);
                event.time = sim::SimTime::seconds(parse_double(c, "t"));
            } else if (key == "type") {
                take(have_type);
                const std::string name = c.string_value();
                const auto type = trace_event_type_from_name(name);
                if (!type.has_value()) {
                    c.fail("unknown event type \"" + name + "\"");
                }
                event.type = *type;
            } else if (key == "node") {
                take(have_node);
                event.node = parse_int<std::int32_t>(c, "node");
            } else if (key == "a") {
                take(have_a);
                event.a = parse_int<std::int64_t>(c, "a");
            } else if (key == "b") {
                take(have_b);
                event.b = parse_double(c, "b");
            } else if (key == "x") {
                take(have_x);
                event.x = parse_double(c, "x");
            } else {
                c.fail("unknown field \"" + key + "\"");
            }
            if (c.peek_is('}')) {
                break;
            }
            c.expect(',');
        }
    }
    c.expect('}');
    c.skip_ws();
    if (c.i != line.size()) {
        c.fail("trailing content after event object");
    }

    if (!(have_seq && have_t && have_type && have_node && have_a && have_b &&
          have_x)) {
        throw std::runtime_error{
            "TraceReader: event is missing required fields (need seq, t, "
            "type, node, a, b, x)"};
    }
    const TraceEventSpec& spec = kTraceEvents[static_cast<std::size_t>(event.type)];
    check_slot(spec, "node", spec.node, event.node);
    check_slot(spec, "a", spec.a, event.a);
    check_slot(spec, "b", spec.b, event.b);
    check_slot(spec, "x", spec.x, event.x);
    return event;
}

std::vector<TraceEvent> TraceReader::read_all(const std::string& path) {
    std::ifstream in{path};
    if (!in) {
        throw std::runtime_error{"TraceReader: cannot open " + path};
    }
    std::vector<TraceEvent> events;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        try {
            events.push_back(parse_line(line));
        } catch (const std::runtime_error& e) {
            throw std::runtime_error{path + ":" + std::to_string(lineno) +
                                     ": " + e.what()};
        }
    }
    return events;
}

} // namespace routesync::obs
