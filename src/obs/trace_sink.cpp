#include "obs/trace_sink.hpp"

#include <array>
#include <bit>
#include <stdexcept>

#include "obs/json.hpp"

namespace routesync::obs {

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_{capacity} {
    if (capacity_ == 0) {
        throw std::invalid_argument{"RingBufferSink: capacity must be >= 1"};
    }
}

void RingBufferSink::on_event(const TraceEvent& event) {
    ++seen_;
    if (events_.size() == capacity_) {
        events_.pop_front();
        ++dropped_;
    }
    events_.push_back(event);
}

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL; // FNV-1a 64-bit prime

/// An encoded event is 45 bytes, so at most 45 zero bytes in a row.
constexpr std::size_t kEventBytes = 8 + 8 + 1 + 4 + 8 + 8 + 8;

/// kPrimePow[k] = prime^k (mod 2^64): folding a zero byte is h ^= 0,
/// h *= prime, so a run of k zero bytes is one multiply by prime^k.
constexpr auto kPrimePow = [] {
    std::array<std::uint64_t, kEventBytes + 1> pow{};
    pow[0] = 1;
    for (std::size_t k = 1; k < pow.size(); ++k) {
        pow[k] = pow[k - 1] * kFnvPrime;
    }
    return pow;
}();

} // namespace

void HashingSink::on_event(const TraceEvent& event) {
    ++seen_;
    // Byte for byte the serial FNV-1a fold of the encoding, except that
    // zero bytes at either end of a field are only counted: each run of
    // them (runs may span fields) costs one multiply, made just before
    // the next nonzero byte or at the end of the event.
    std::uint64_t h = hash_;
    int zeros = 0; // zero bytes folded but not yet multiplied in
    const auto fold = [&h, &zeros](std::uint64_t word, int bytes) {
        if (word == 0) {
            zeros += bytes;
            return;
        }
        const int lo = std::countr_zero(word) / 8;
        // One past the top nonzero byte.
        const int hi = (static_cast<int>(std::bit_width(word)) + 7) / 8;
        h *= kPrimePow[static_cast<std::size_t>(zeros + lo)];
        for (int i = lo; i < hi; ++i) {
            h ^= (word >> (8 * i)) & 0xffU;
            h *= kFnvPrime;
        }
        zeros = bytes - hi;
    };
    fold(event.seq, 8);
    fold(std::bit_cast<std::uint64_t>(event.time.sec()), 8);
    fold(static_cast<std::uint64_t>(event.type), 1);
    fold(static_cast<std::uint64_t>(static_cast<std::uint32_t>(event.node)), 4);
    fold(static_cast<std::uint64_t>(event.a), 8);
    fold(std::bit_cast<std::uint64_t>(event.b), 8);
    fold(std::bit_cast<std::uint64_t>(event.x), 8);
    hash_ = h * kPrimePow[static_cast<std::size_t>(zeros)];
}

std::string trace_event_jsonl(const TraceEvent& event) {
    // Hand-rolled rather than JsonWriter: this runs once per traced
    // event, and a fixed field order keeps traces diffable.
    std::string line;
    line.reserve(96);
    line += "{\"seq\": ";
    line += std::to_string(event.seq);
    line += ", \"t\": ";
    line += json_number(event.time.sec());
    line += ", \"type\": \"";
    line += trace_event_name(event.type); // fixed identifiers, no escaping needed
    line += "\", \"node\": ";
    line += std::to_string(event.node);
    line += ", \"a\": ";
    line += std::to_string(event.a);
    line += ", \"b\": ";
    line += json_number(event.b);
    line += ", \"x\": ";
    line += json_number(event.x);
    line += "}";
    return line;
}

JsonlFileSink::JsonlFileSink(const std::string& path) : path_{path} {
    file_ = std::fopen(path.c_str(), "w");
    if (file_ == nullptr) {
        throw std::runtime_error{"JsonlFileSink: cannot open " + path};
    }
}

JsonlFileSink::~JsonlFileSink() {
    if (file_ != nullptr) {
        std::fclose(file_);
    }
}

void JsonlFileSink::on_event(const TraceEvent& event) {
    ++seen_;
    const std::string line = trace_event_jsonl(event);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
}

void JsonlFileSink::flush() {
    std::fflush(file_);
}

} // namespace routesync::obs
