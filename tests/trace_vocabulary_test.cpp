// The trace vocabulary (obs::kTraceEvents) and TraceReader's hold on it:
//
//   * every bound of every row reads back whole, and one step past it is
//     rejected with an error naming the type and the slot;
//   * named cases for the sync events' rows (sync_config,
//     sync_transition, coupling_edge);
//   * docs/OBSERVABILITY.md's event table is the table, rendered;
//   * a seeded mutation of one canonical line per row is either rejected
//     with a TraceReader error or accepted and round-trips bit for bit;
//   * the two types no gate trace carries (timer_reset, sync_transition)
//     come from real runs on both backends and read back through the
//     reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "obs/run_context.hpp"
#include "obs/trace_reader.hpp"
#include "obs/trace_sink.hpp"

namespace {

using namespace routesync;
namespace slot = obs::slot;

using i32 = std::numeric_limits<std::int32_t>;
constexpr double kRealMax = std::numeric_limits<double>::max();

/// A value inside the slot: 1 where the range holds it, else its nearest
/// bound.
double inside(const obs::Slot& s) { return std::clamp(1.0, s.lo, s.hi); }

/// An event of `spec`'s type with every slot inside its row.
obs::TraceEvent inside_event(const obs::TraceEventSpec& spec) {
    obs::TraceEvent e;
    e.seq = 12;
    e.time = sim::SimTime::seconds(1234.5678);
    e.type = spec.type;
    e.node = static_cast<std::int32_t>(inside(spec.node));
    e.a = static_cast<std::int64_t>(inside(spec.a));
    e.b = inside(spec.b);
    e.x = inside(spec.x);
    return e;
}

bool same_bits(const obs::TraceEvent& p, const obs::TraceEvent& q) {
    return p.seq == q.seq &&
           std::bit_cast<std::uint64_t>(p.time.sec()) ==
               std::bit_cast<std::uint64_t>(q.time.sec()) &&
           p.type == q.type && p.node == q.node && p.a == q.a &&
           std::bit_cast<std::uint64_t>(p.b) == std::bit_cast<std::uint64_t>(q.b) &&
           std::bit_cast<std::uint64_t>(p.x) == std::bit_cast<std::uint64_t>(q.x);
}

/// The reader's error for `line`, or "" when it accepts it.
std::string rejection(const std::string& line) {
    try {
        (void)obs::TraceReader::parse_line(line);
        return "";
    } catch (const std::runtime_error& e) {
        return e.what();
    }
}

/// `e` reads back through its line, bit for bit.
void expect_round_trip(const obs::TraceEvent& e) {
    const std::string line = obs::trace_event_jsonl(e);
    try {
        const obs::TraceEvent back = obs::TraceReader::parse_line(line);
        EXPECT_TRUE(same_bits(back, e)) << line;
        EXPECT_EQ(obs::trace_event_jsonl(back), line);
    } catch (const std::runtime_error& err) {
        ADD_FAILURE() << line << ": " << err.what();
    }
}

/// The reader rejects `e`'s line, naming `spec`'s type and `slot_name`.
void expect_rejected(const obs::TraceEvent& e, const obs::TraceEventSpec& spec,
                     const char* slot_name) {
    const std::string line = obs::trace_event_jsonl(e);
    const std::string error = rejection(line);
    const std::string want = "TraceReader: " + std::string{spec.name} + " \"" +
                             slot_name + "\"";
    EXPECT_EQ(error.rfind(want, 0), 0U) << line << ": " << error;
}

// ----------------------------------------------------------- the bounds

// For each row and each slot, both bounds read back whole and one step
// past a bound is rejected: a step is 1 for an integer field (`node`,
// `a`), the next double for a real one, and half a unit for an integral
// real one (which also rejects a fraction between its bounds). A bound
// or a step outside the field's own type (an infinite bound, node
// 2^31) is no event the writer can emit; the parse tests reject those
// tokens.
TEST(TraceVocabulary, EveryBoundReadsBackAndOneStepPastItIsRejected) {
    struct Field {
        const char* name;
        obs::Slot obs::TraceEventSpec::*slot;
        double min, max; ///< the field type's range
        bool is_int;
        void (*set)(obs::TraceEvent&, double);
    };
    const Field fields[] = {
        {"node", &obs::TraceEventSpec::node, i32::min(), i32::max(), true,
         [](obs::TraceEvent& e, double v) { e.node = static_cast<std::int32_t>(v); }},
        {"a", &obs::TraceEventSpec::a, -0x1p63, std::nextafter(0x1p63, 0.0), true,
         [](obs::TraceEvent& e, double v) { e.a = static_cast<std::int64_t>(v); }},
        {"b", &obs::TraceEventSpec::b, -kRealMax, kRealMax, false,
         [](obs::TraceEvent& e, double v) { e.b = v; }},
        {"x", &obs::TraceEventSpec::x, -kRealMax, kRealMax, false,
         [](obs::TraceEvent& e, double v) { e.x = v; }},
    };
    for (const obs::TraceEventSpec& spec : obs::kTraceEvents) {
        const obs::TraceEvent base = inside_event(spec);
        expect_round_trip(base);
        for (const Field& f : fields) {
            const obs::Slot& s = spec.*f.slot;
            const auto holds = [&f](double v) { return v >= f.min && v <= f.max; };
            const auto event = [&](double v) {
                obs::TraceEvent e = base;
                f.set(e, v);
                return e;
            };
            for (const double bound : {s.lo, s.hi}) {
                if (holds(bound)) {
                    expect_round_trip(event(bound));
                }
            }
            const auto past = [&](double bound, double dir) {
                if (f.is_int) {
                    return bound + dir;
                }
                return s.integral ? bound + dir / 2 : std::nextafter(bound, dir * slot::kInf);
            };
            for (const double v : {past(s.lo, -1.0), past(s.hi, 1.0)}) {
                if (holds(v)) {
                    expect_rejected(event(v), spec, f.name);
                }
            }
            if (!f.is_int && s.integral && s.lo + 0.5 < s.hi) {
                const obs::TraceEvent e = event(s.lo + 0.5);
                expect_rejected(e, spec, f.name);
                EXPECT_NE(rejection(obs::trace_event_jsonl(e)).find("the integers in"),
                          std::string::npos);
            }
        }
    }
}

// ------------------------------------------- the validator's per-type cases

const std::string kGoodSyncConfig =
    R"({"seq": 1, "t": 0, "type": "sync_config", "node": -1, "a": 20000, "b": 121.11, "x": 0.95})";
const std::string kGoodTransition =
    R"({"seq": 2, "t": 5.0, "type": "sync_transition", "node": -1, "a": 1, "b": 0.96, "x": 0.95})";
const std::string kGoodEdge =
    R"({"seq": 3, "t": 9.0, "type": "coupling_edge", "node": 4, "a": 2, "b": 17, "x": 0})";

/// `line` with `field`'s value replaced by `value`.
std::string with(std::string line, const std::string& field, const std::string& value) {
    const std::string key = "\"" + field + "\": ";
    const std::size_t at = line.find(key) + key.size();
    line.replace(at, line.find_first_of(",}", at) - at, value);
    return line;
}

TEST(TraceVocabulary, AcceptsTheSyncEventsTheValidatorAccepted) {
    for (const std::string& line : {kGoodSyncConfig, kGoodTransition, kGoodEdge}) {
        EXPECT_EQ(rejection(line), "") << line;
    }
}

TEST(TraceVocabulary, RejectsWhatTheValidatorRejectedPerType) {
    struct Case {
        const char* label;
        std::string line;
        const char* want;
    };
    const std::vector<Case> cases{
        {"sync_config with a node id", with(kGoodSyncConfig, "node", "3"),
         "sync_config \"node\""},
        {"sync_config zero period", with(kGoodSyncConfig, "b", "0"), "sync_config \"b\""},
        {"sync_config threshold > 1", with(kGoodSyncConfig, "x", "1.5"),
         "sync_config \"x\""},
        {"sync_transition bad direction", with(kGoodTransition, "a", "2"),
         "sync_transition \"a\""},
        {"sync_transition r > 1", with(kGoodTransition, "b", "1.5"),
         "sync_transition \"b\""},
        {"coupling_edge negative dst", with(kGoodEdge, "node", "-1"),
         "coupling_edge \"node\""},
        {"coupling_edge zero weight", with(kGoodEdge, "b", "0"), "coupling_edge \"b\""},
        {"coupling_edge fractional weight", with(kGoodEdge, "b", "2.5"),
         "coupling_edge \"b\""},
    };
    for (const Case& c : cases) {
        const std::string error = rejection(c.line);
        EXPECT_EQ(error.rfind("TraceReader: " + std::string{c.want}, 0), 0U)
            << c.label << ": " << error;
    }
}

// Each of these lines breaks its row on its own.
TEST(TraceVocabulary, RejectsEachLineOfAnOutOfRowTrace) {
    const std::vector<std::pair<std::string, std::string>> lines{
        {R"({"seq": 0, "t": 0, "type": "coupling_edge", "node": -7, "a": -3, "b": 0.5, "x": 0})",
         "coupling_edge \"node\""},
        {R"({"seq": 1, "t": 0, "type": "sync_transition", "node": 4, "a": 9, "b": 7.5, "x": 0})",
         "sync_transition \"node\""},
        {R"({"seq": 2, "t": 0, "type": "timer_set", "node": -4, "a": 0, "b": -121, "x": 0})",
         "timer_set \"node\""},
    };
    for (const auto& [line, want] : lines) {
        const std::string error = rejection(line);
        EXPECT_EQ(error.rfind("TraceReader: " + want, 0), 0U) << error;
    }
}

// ------------------------------------------------------------- the docs

/// The shortest text that reads back as `v`.
std::string number(double v) {
    char buf[32];
    const auto result = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, result.ptr);
}

/// One slot as a table cell: its meaning and its range. `real` for `b`
/// and `x`, whose integral slots the cell marks.
std::string cell(const obs::Slot& s, bool real) {
    if (s.lo == s.hi) {
        return number(s.lo);
    }
    const auto text = [](double v) {
        return v == slot::kNodeMax ? std::string{"2^31-1"} : number(v);
    };
    std::string range;
    if (s.lo == -slot::kInf && s.hi == slot::kInf) {
        range = "any finite";
    } else if (s.hi == slot::kInf) {
        range = s.lo == slot::kAboveZero ? "> 0" : "≥ " + text(s.lo);
    } else {
        range = (s.lo == slot::kAboveZero ? "in (0" : "in [" + text(s.lo)) + ", " +
                text(s.hi) + "]";
    }
    return std::string{s.meaning} + "; " + (real && s.integral ? "integer " : "") + range;
}

const std::string kDocsHeader = "| `type` | emitted by | `node` | `a` | `b` | `x` |";

/// kTraceEvents as docs/OBSERVABILITY.md's markdown table, header first.
std::vector<std::string> render_table() {
    std::vector<std::string> rows{kDocsHeader, "|---|---|---|---|---|---|"};
    for (const obs::TraceEventSpec& spec : obs::kTraceEvents) {
        rows.push_back("| `" + std::string{spec.name} + "` | " + spec.producers + " | " +
                       cell(spec.node, false) + " | " + cell(spec.a, false) + " | " +
                       cell(spec.b, true) + " | " + cell(spec.x, true) + " |");
    }
    return rows;
}

TEST(TraceVocabulary, ObservabilityDocsTableIsTheTableRendered) {
    const std::string path = std::string{ROUTESYNC_SOURCE_DIR} + "/docs/OBSERVABILITY.md";
    std::ifstream in{path};
    ASSERT_TRUE(in) << "cannot open " << path;
    std::vector<std::string> committed;
    for (std::string line; std::getline(in, line);) {
        if (line == kDocsHeader || (!committed.empty() && line.starts_with("|"))) {
            committed.push_back(line);
        } else if (!committed.empty()) {
            break;
        }
    }
    const std::vector<std::string> expected = render_table();
    std::ostringstream want;
    for (const std::string& row : expected) {
        want << row << '\n';
    }
    EXPECT_TRUE(committed == expected) << path << " should hold this table:\n"
                                       << want.str();
}

// ------------------------------------------------------ seeded mutation

// One canonical line per row, mutated by byte deletions, insertions and
// replacements drawn from the characters a JSONL line is made of. Every
// mutant is rejected with a TraceReader error, or accepted and then
// re-serializes to a line that reads back as the same event, bit for bit:
// nothing crashes, throws anything else or reads as something else.
TEST(TraceReaderMutation, MutantsAreRejectedOrRoundTripBitForBit) {
    const std::string alphabet = "0123456789+-.e\",:{} ";
    std::mt19937_64 rng{0x7ace'5eedULL};
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    int accepted = 0;
    int rejected = 0;
    for (const obs::TraceEventSpec& spec : obs::kTraceEvents) {
        const std::string canonical = obs::trace_event_jsonl(inside_event(spec));
        for (int m = 0; m < 400; ++m) {
            std::string line = canonical;
            for (std::size_t edits = 1 + pick(3); edits > 0; --edits) {
                const char c = alphabet[pick(alphabet.size())];
                switch (line.empty() ? 1 : pick(3)) {
                case 0: line.erase(pick(line.size()), 1); break;
                case 1: line.insert(pick(line.size() + 1), 1, c); break;
                default: line[pick(line.size())] = c; break;
                }
            }
            try {
                const obs::TraceEvent e = obs::TraceReader::parse_line(line);
                const std::string again = obs::trace_event_jsonl(e);
                const obs::TraceEvent back = obs::TraceReader::parse_line(again);
                EXPECT_TRUE(same_bits(back, e)) << line << " -> " << again;
                ++accepted;
            } catch (const std::runtime_error& err) {
                EXPECT_EQ(std::string{err.what()}.rfind("TraceReader: ", 0), 0U)
                    << line << ": " << err.what();
                ++rejected;
            }
        }
    }
    // Both outcomes occur, so the test exercises both paths.
    EXPECT_GT(accepted, 100);
    EXPECT_GT(rejected, 1000);
}

// ------------------------------------------------------ real producers

/// The events of `cfg`'s run, traced to a file and read back.
std::vector<obs::TraceEvent> traced_run(core::ExperimentConfig cfg, const std::string& name) {
    const std::string path = ::testing::TempDir() + name;
    {
        obs::RunContext ctx;
        ctx.trace_to_file(path);
        cfg.obs = &ctx;
        (void)core::run_experiment(cfg);
    }
    auto events = obs::TraceReader::read_all(path);
    std::remove(path.c_str());
    return events;
}

std::size_t count_of(const std::vector<obs::TraceEvent>& events, obs::TraceEventType type) {
    return static_cast<std::size_t>(std::count_if(
        events.begin(), events.end(),
        [type](const obs::TraceEvent& e) { return e.type == type; }));
}

// timer_reset (a triggered update wave) and sync_transition (a monitored
// run from a synchronized start) appear in no gate trace; both backends
// write them, and the reader holds them to their rows.
TEST(TraceVocabulary, TimerResetAndSyncTransitionReadBackOnBothBackends) {
    core::ExperimentConfig base;
    base.params.n = 20;
    base.params.tp = sim::SimTime::seconds(121);
    base.params.tc = sim::SimTime::seconds(0.11);
    base.params.tr = sim::SimTime::seconds(0.11);
    base.params.seed = 7;
    base.max_time = sim::SimTime::seconds(2000);

    core::ExperimentConfig triggered = base;
    triggered.trigger_all_at = sim::SimTime::seconds(500);
    core::ExperimentConfig monitored = base;
    monitored.params.start = core::StartCondition::Synchronized;
    monitored.monitor = true;

    for (const auto& [cfg, type] :
         {std::pair{triggered, obs::TraceEventType::TimerReset},
          std::pair{monitored, obs::TraceEventType::SyncTransition}}) {
        std::vector<std::vector<obs::TraceEvent>> traces;
        for (const auto backend :
             {core::ExperimentBackend::Engine, core::ExperimentBackend::FastKernel}) {
            core::ExperimentConfig run = cfg;
            run.backend = backend;
            traces.push_back(traced_run(run, "trace_vocabulary_run.jsonl"));
            EXPECT_GT(count_of(traces.back(), type), 0U) << obs::trace_event_name(type);
        }
        ASSERT_EQ(traces[0].size(), traces[1].size());
        for (std::size_t i = 0; i < traces[0].size(); ++i) {
            EXPECT_TRUE(same_bits(traces[0][i], traces[1][i])) << "event " << i;
        }
    }
}

} // namespace
