// TraceReader: the C++ side of the JSONL trace interchange format.
//
// Parses exactly what trace_event_jsonl() writes — one fixed-field-order
// JSON object per line:
//
//   {"seq": N, "t": X, "type": "...", "node": N, "a": N, "b": X, "x": X}
//
// The parser is strict on structure (every field present, known type
// name, numbers where numbers belong) and on each slot's range in its
// type's row of kTraceEvents, but tolerant of field order and whitespace,
// so hand-edited or externally generated traces still load. Round-trip
// contract (tested): read_all(file written by JsonlFileSink) re-serialized
// through trace_event_jsonl() reproduces the input bytes.
#pragma once

#include <string>
#include <vector>

#include "obs/trace_event.hpp"

namespace routesync::obs {

class TraceReader {
public:
    /// Parses one JSONL line into an event. Throws std::runtime_error
    /// with a description (and the offending line number, when set via
    /// read_all) on malformed input or a slot outside its type's row.
    [[nodiscard]] static TraceEvent parse_line(const std::string& line);

    /// Reads every event of a JSONL trace file. Blank lines are not
    /// tolerated — a trace is one event per line, nothing else. Throws
    /// std::runtime_error on I/O or parse failure.
    [[nodiscard]] static std::vector<TraceEvent> read_all(const std::string& path);
};

} // namespace routesync::obs
