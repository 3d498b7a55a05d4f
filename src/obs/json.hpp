// Minimal JSON writing helpers shared by the JSONL trace sink, the run
// manifest writer, and the coupling-graph export. Writing only — the
// repo never parses JSON in C++ (tools/validate_trace.py does that).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace routesync::obs {

/// Escapes a string for embedding inside JSON double quotes: quote,
/// backslash, and control characters (RFC 8259 section 7).
[[nodiscard]] inline std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

/// Renders a double as a JSON number token. JSON has no Infinity/NaN, so
/// those become null (the schema treats null as "not applicable").
[[nodiscard]] inline std::string json_number(double x) {
    if (!std::isfinite(x)) {
        return "null";
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

/// Incremental JSON object/array writer over a growing string. Tracks
/// comma placement so call sites stay flat; no nesting bookkeeping beyond
/// what the manifest and bench summaries need.
class JsonWriter {
public:
    void begin_object() { separator(); out_ += '{'; fresh_ = true; }
    void end_object() { out_ += '}'; fresh_ = false; }
    void begin_array() { separator(); out_ += '['; fresh_ = true; }
    void end_array() { out_ += ']'; fresh_ = false; }

    void key(const std::string& name) {
        separator();
        out_ += '"';
        out_ += json_escape(name);
        out_ += "\": ";
        fresh_ = true; // the value follows without a comma
    }

    void value(const std::string& s) {
        separator();
        out_ += '"';
        out_ += json_escape(s);
        out_ += '"';
    }
    void value(const char* s) { value(std::string{s}); }
    void value(double x) { separator(); out_ += json_number(x); }
    void value(std::uint64_t x) { separator(); out_ += std::to_string(x); }
    void value(std::int64_t x) { separator(); out_ += std::to_string(x); }
    void value(int x) { separator(); out_ += std::to_string(x); }
    void value(bool b) { separator(); out_ += b ? "true" : "false"; }
    void null() { separator(); out_ += "null"; }

    [[nodiscard]] const std::string& str() const noexcept { return out_; }

private:
    void separator() {
        if (!fresh_) {
            out_ += ", ";
        }
        fresh_ = false;
    }

    std::string out_;
    bool fresh_ = true;
};

} // namespace routesync::obs
