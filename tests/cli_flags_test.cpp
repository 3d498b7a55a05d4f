// Tests for the flag tables and the one parser behind them.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "bench/common.hpp"
#include "parallel/task_pool.hpp"
#include "scenarios/registry.hpp"
#include "tools/flags.hpp"

namespace {

using namespace routesync::cli;
namespace scenarios = routesync::scenarios;
namespace bench = routesync::bench;

using Tokens = std::vector<std::string>;

/// A table with one flag of every kind, for the parser's own rules.
constexpr FlagSpec kTestTable[] = {
    integer("n", "N"),          real("tp", "SEC"),
    real("tr", "SEC"),          real("max-time", "SEC"),
    integer("offset", "K"),     boolean("sync-start"),
    boolean("rounds"),          text("trace", "FILE"),
    text("out", "FILE"),        seed(),
    integer("jobs", "N", 0, kUnbounded),
    integer("trials", "K", 1),  choice("queue", "red|droptail")};

/// The observability flags, as a binary that wires all three lists them.
constexpr FlagSpec kBenchObservability[] = {bench::kTraceFlag, bench::kSampleEveryFlag,
                                            bench::kMonitorFlag};

Args parse_test(const Tokens& tokens) { return parse(tokens, {kTestTable}); }

/// The message parse throws for `tokens` against `tables`, or "" when
/// every flag parses.
std::string rejection(const Tokens& tokens, std::initializer_list<Table> tables) {
    try {
        (void)parse(tokens, tables);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return {};
}

/// Runs builtin `name` through the registry and expects it to throw
/// std::invalid_argument before it prints anything.
void expect_rejected_quietly(const std::string& name, const Tokens& tokens) {
    scenarios::register_builtin_scenarios();
    testing::internal::CaptureStdout();
    EXPECT_THROW(scenarios::ScenarioRegistry::instance().run(name, tokens),
                 std::invalid_argument)
        << name << " " << tokens[0];
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "") << name << " " << tokens[0];
}

/// The same for `scenario sweep shared_lan`, parsed as the CLI parses it.
void expect_sweep_rejected_quietly(const Tokens& tokens) {
    testing::internal::CaptureStdout();
    EXPECT_THROW(scenarios::run_shared_lan_sweep(parse(
                     tokens, {scenarios::kSharedLanTable, scenarios::kSweepAxesTable})),
                 std::invalid_argument)
        << tokens[0];
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "") << tokens[0];
}

TEST(CliFlags, ParsesNameValuePairs) {
    const Args a = parse_test({"--n", "20", "--tp", "121.5"});
    EXPECT_EQ(a.integer("n", 0), 20);
    EXPECT_DOUBLE_EQ(a.real("tp", 0.0), 121.5);
}

TEST(CliFlags, ParsesEqualsSignForm) {
    const Args a = parse_test({"--n=20", "--tp=121.5", "--trace=out.jsonl"});
    EXPECT_EQ(a.integer("n", 0), 20);
    EXPECT_DOUBLE_EQ(a.real("tp", 0.0), 121.5);
    EXPECT_EQ(a.text("trace"), "out.jsonl");
}

TEST(CliFlags, EqualsFormWithEmptyValueStoresEmpty) {
    const Args a = parse_test({"--out="});
    EXPECT_TRUE(a.has("out"));
    EXPECT_EQ(a.text("out", "fallback"), "");
}

TEST(CliFlags, StringFlagFallback) {
    const Args a = parse_test({"--trace", "t.jsonl"});
    EXPECT_EQ(a.text("trace"), "t.jsonl");
    EXPECT_EQ(a.text("out", "dflt"), "dflt");
}

TEST(CliFlags, BooleanFlagsGetOne) {
    // A boolean is set by its bare name and never takes a value: `pm
    // --sync-start 0` used to run the synchronized start.
    const Args a = parse_test({"--sync-start", "--n", "5", "--rounds"});
    EXPECT_TRUE(a.flag("sync-start"));
    EXPECT_TRUE(a.flag("rounds"));
    EXPECT_FALSE(parse_test({}).flag("rounds"));
    EXPECT_EQ(a.integer("n", 0), 5);
    EXPECT_EQ(rejection({"--sync-start", "0"}, {kTestTable}),
              "--sync-start takes no value, got '0'");
    EXPECT_EQ(rejection({"--rounds=7"}, {kTestTable}),
              "--rounds takes no value, got '7'");
    EXPECT_EQ(rejection({"--rounds="}, {kTestTable}), "--rounds takes no value, got ''");
}

TEST(CliFlags, FallbacksApplyWhenAbsent) {
    const Args a = parse_test({});
    EXPECT_EQ(a.integer("n", 42), 42);
    EXPECT_DOUBLE_EQ(a.real("tp", 3.5), 3.5);
    EXPECT_EQ(a.seed("seed", 9), 9U);
    EXPECT_EQ(a.choice("queue", "droptail"), "droptail");
}

TEST(CliFlags, ScientificNotationValues) {
    EXPECT_DOUBLE_EQ(parse_test({"--max-time", "1e7"}).real("max-time", 0.0), 1e7);
}

TEST(CliFlags, NegativeNumbersAreValues) {
    EXPECT_EQ(parse_test({"--offset", "-3"}).integer("offset", 0), -3);
}

TEST(CliFlags, NonFlagTokenThrows) {
    EXPECT_THROW(parse_test({"bogus"}), std::invalid_argument);
    EXPECT_THROW(parse_test({"--n", "20", "stray", "--rounds"}), std::invalid_argument);
}

TEST(CliFlags, EmptyFlagNameThrows) {
    EXPECT_THROW(parse_test({"--"}), std::invalid_argument);
    EXPECT_THROW(parse_test({"--=5"}), std::invalid_argument);
}

TEST(CliFlags, LastOccurrenceWins) {
    EXPECT_EQ(parse_test({"--n", "5", "--n", "9"}).integer("n", 0), 9);
}

TEST(CliFlags, IntegerAndRealFlagsRejectJunk) {
    // The readers used atoi/atof: `pm --n 5x` ran N = 5 and `pm --tr
    // 0.1abc` ran Tr = 0.1. Empty values, trailing junk and values out of
    // range throw, naming the flag.
    for (const char* junk : {"5x", "", "five", "2.5", "99999999999", "0x10"}) {
        EXPECT_THROW(parse_test({"--n", junk}), std::invalid_argument)
            << "'" << junk << "'";
    }
    for (const char* junk : {"0.1abc", "", "abc", "1e999", "nan", "inf", "1,5"}) {
        EXPECT_THROW(parse_test({"--tr", junk}), std::invalid_argument)
            << "'" << junk << "'";
    }
    EXPECT_EQ(parse_test({"--n", "-7"}).integer("n", 0), -7);
    EXPECT_EQ(parse_test({"--n", "2147483647"}).integer("n", 0), 2147483647);
    EXPECT_DOUBLE_EQ(parse_test({"--tr", "-0.5"}).real("tr", 0.0), -0.5);
    EXPECT_DOUBLE_EQ(parse_test({"--tr", ".25"}).real("tr", 0.0), 0.25);
    EXPECT_EQ(rejection({"--tr", "0.1abc"}, {kTestTable}),
              "--tr must be a number, got '0.1abc'");
    EXPECT_EQ(rejection({"--n", "5x"}, {kTestTable}),
              "--n must be an integer in [-2147483648, 2147483647], got '5x'");
}

TEST(CliFlags, SeedTakesDecimalDigitsUpToTwoToThe64MinusOne) {
    // Seeds used to be read as int and cast (`pm --seed -1` ran seed
    // 2^64 - 1, `pm --seed 3000000000` was rejected), and the benches took
    // strtoull's sign. Every seed field is 64-bit unsigned.
    EXPECT_EQ(parse_test({}).seed("seed", 7), 7U);
    EXPECT_EQ(parse_test({"--seed", "0"}).seed("seed", 7), 0U);
    EXPECT_EQ(parse_test({"--seed", "3000000000"}).seed("seed", 7), 3000000000ULL);
    EXPECT_EQ(parse_test({"--seed=18446744073709551615"}).seed("seed", 7),
              std::numeric_limits<std::uint64_t>::max());
    for (const char* junk : {"-1", "+1", "1x", "", "18446744073709551616", " 1", "1e3"}) {
        EXPECT_THROW(parse_test({"--seed", junk}), std::invalid_argument)
            << "'" << junk << "'";
    }
    EXPECT_EQ(rejection({"--seed", "-1"}, {kTestTable}),
              "--seed must be an integer in [0, 18446744073709551615], got '-1'");
    for (const char* builtin : {"shared_lan", "nearnet", "audiocast"}) {
        expect_rejected_quietly(builtin, {"--seed", "-1", "--max-time", "1"});
    }
}

TEST(CliFlags, SharedLanRejectsJunkNumbersBeforeItRuns) {
    expect_rejected_quietly("shared_lan", {"--n", "3x", "--max-time", "1"});
    expect_rejected_quietly("shared_lan", {"--max-time", "1s"});
    EXPECT_THROW(parse(Tokens{"--red-maxp", "0.1%", "--max-time", "1"},
                       {scenarios::kSharedLanTable, scenarios::kSweepAxesTable}),
                 std::invalid_argument);
    // `--dispatch virtaul` ran the fast dispatch.
    EXPECT_EQ(rejection({"--dispatch", "virtaul"}, {scenarios::kSharedLanTable}),
              "--dispatch must be one of fast|virtual, got 'virtaul'");
}

TEST(CliFlags, JobsDefaultsToFallbackWhenAbsent) {
    EXPECT_EQ(parse_test({}).integer<std::size_t>("jobs", 7), 7U);
}

TEST(CliFlags, JobsParsesPositiveIntegers) {
    EXPECT_EQ(parse_test({"--jobs", "4"}).integer<std::size_t>("jobs", 1), 4U);
    EXPECT_EQ(parse_test({"--jobs", "1"}).integer<std::size_t>("jobs", 8), 1U);
    EXPECT_EQ(parse_test({"--jobs", "64"}).integer<std::size_t>("jobs", 1), 64U);
    // Past int: jobs are bounded below only.
    EXPECT_EQ(parse_test({"--jobs", "3000000000"}).integer<std::size_t>("jobs", 1),
              3000000000U);
}

TEST(CliFlags, JobsZeroMeansAutoDetect) {
    // 0 reads as 0, which the TaskPool (and every --jobs reader) takes
    // as the hardware concurrency.
    EXPECT_EQ(parse_test({"--jobs", "0"}).integer<std::size_t>("jobs", 6), 0U);
    EXPECT_EQ(routesync::parallel::TaskPool{0}.jobs(),
              routesync::parallel::hardware_jobs());
}

TEST(CliFlags, JobsRejectsNegatives) {
    EXPECT_THROW(parse_test({"--jobs", "-2"}), std::invalid_argument);
}

TEST(CliFlags, JobsRejectsJunk) {
    EXPECT_THROW(parse_test({"--jobs", "four"}), std::invalid_argument);
    EXPECT_THROW(parse_test({"--jobs", "4x"}), std::invalid_argument);
    // A bare --jobs needs its value.
    EXPECT_EQ(rejection({"--jobs"}, {kTestTable}), "--jobs needs a value");
    EXPECT_EQ(rejection({"--jobs", "--n", "3"}, {kTestTable}), "--jobs needs a value");
}

TEST(CliFlags, JobsErrorMessageNamesTheFlag) {
    EXPECT_EQ(rejection({"--jobs", "-1"}, {kTestTable}),
              "--jobs must be an integer >= 0, got '-1'");
}

TEST(CliFlags, RejectUnknownFlagsNamesTheFirstUnknownFlag) {
    EXPECT_EQ(rejection({}, {kTestTable}), "");
    EXPECT_EQ(rejection({"--n", "5", "--tp=1"}, {kTestTable}), "");
    // The first unknown flag on the command line.
    EXPECT_EQ(rejection({"--zeta", "1", "--n", "5", "--bogus", "3"}, {kTestTable}),
              "unknown flag --zeta");
}

TEST(CliFlags, SweepRejectsBatchAndUnknownFlags) {
    // --batch is retired: a sweep that still passes it must fail, not
    // silently run with the flag dropped.
    EXPECT_EQ(rejection({"--n", "5", "--batch", "4"}, {kSweepTable}),
              "unknown flag --batch");
    EXPECT_EQ(rejection({"--n", "5", "--from", "1", "--to", "1.2", "--step", "0.2",
                         "--bogus", "3"},
                        {kSweepTable}),
              "unknown flag --bogus");
}

TEST(CliFlags, SweepAcceptsEveryDocumentedFlag) {
    // The tsan_sweep_smoke ctest entry.
    EXPECT_EQ(rejection({"--n", "20", "--tp", "121", "--tc", "0.11", "--from", "0.6",
                         "--to", "3.0", "--step", "0.2", "--sim-trials", "2",
                         "--sim-max-time", "2000", "--jobs", "8"},
                        {kSweepTable}),
              "");
    // README.md and docs/OBSERVABILITY.md.
    EXPECT_EQ(rejection({"--n", "20", "--tp", "121", "--tc", "0.11", "--from", "0.5",
                         "--to", "3", "--step", "0.05", "--trace", "sweep.jsonl",
                         "--out", "sweep.manifest.json"},
                        {kSweepTable}),
              "");
    // The rest of the table, and the chain parameters it shares with
    // `chain`.
    EXPECT_EQ(rejection({"--seed", "3", "--tr", "0.11", "--f2", "19"}, {kSweepTable}),
              "");
}

TEST(CliFlags, PmChainThresholdAndF2RejectAndNameUnknownFlags) {
    // `pm --maxtime 2000` used to run the default 1e5 s without a word.
    EXPECT_EQ(rejection({"--n", "20", "--maxtime", "2000"}, {kPmTable}),
              "unknown flag --maxtime");
    for (const Table table : {Table{kChainTable}, Table{kThresholdTable}, Table{kF2Table}}) {
        EXPECT_EQ(rejection({"--n", "20", "--bogus", "1"}, {table}),
                  "unknown flag --bogus");
    }
    // Flags of one command are not silently taken by another: f2
    // estimates f(2) by simulation, and chain runs no simulation.
    EXPECT_EQ(rejection({"--f2", "19"}, {kF2Table}), "unknown flag --f2");
    EXPECT_EQ(rejection({"--seed", "3"}, {kChainTable}), "unknown flag --seed");
    EXPECT_EQ(rejection({"--max-time", "10"}, {kThresholdTable}),
              "unknown flag --max-time");
}

TEST(CliFlags, TraceAndAnalyzeRejectAndNameUnknownFlags) {
    // `trace replay-check --tolerence 1` used to exit 0 with the default
    // 1e-6 s tolerance.
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--tolerence", "1"},
                        {kTraceReplayCheckTable}),
              "unknown flag --tolerence");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--bin", "10"}, {kTraceSummaryTable}),
              "unknown flag --bin");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--types", "update_tx"},
                        {kTraceFilterTable}),
              "unknown flag --types");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--output", "c.json"},
                        {kTraceExportChromeTable}),
              "unknown flag --output");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--rounds", "121.11"},
                        {kAnalyzeCouplingTable}),
              "unknown flag --rounds");
    // One action's flags are not taken by another.
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--out", "x"}, {kTraceSummaryTable}),
              "unknown flag --out");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--tolerance", "1e-6"},
                        {kAnalyzeCouplingTable}),
              "unknown flag --tolerance");
}

TEST(CliFlags, EveryCommandAcceptsItsUsageFlags) {
    // Every flag of each command's table, spelled as the README, the docs
    // and the CMake entries spell it.
    EXPECT_EQ(rejection({"--n", "20", "--tp", "121", "--tr", "0.1", "--tc", "0.11",
                         "--seed", "3", "--max-time", "1e5", "--sync-start",
                         "--reset-at-expiry", "--half-period", "--delta", "0.5",
                         "--stop-on-sync", "--stop-on-breakup", "2", "--rounds",
                         "--transmits", "--stride", "4", "--monitor",
                         "--sync-threshold", "0.9", "--sync-hysteresis", "0.05",
                         "--trace", "pm.jsonl", "--out", "pm.manifest.json",
                         "--sample-every", "100"},
                        {kPmTable}),
              "");
    EXPECT_EQ(rejection({"--n", "20", "--tp", "121", "--tr", "0.11", "--tc", "0.11",
                         "--f2", "19"},
                        {kChainTable}),
              "");
    EXPECT_EQ(rejection({"--n", "20", "--tp", "30", "--tr", "0.11", "--tc", "0.3",
                         "--f2", "19", "--n-max", "100"},
                        {kThresholdTable}),
              "");
    EXPECT_EQ(rejection({"--n", "20", "--tp", "121", "--tr", "0.1", "--tc", "0.11",
                         "--reps", "20", "--seed", "3", "--jobs", "4"},
                        {kF2Table}),
              "");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--round", "121.11", "--bins", "20"},
                        {kTraceSummaryTable}),
              "");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--type", "update_tx,timer_set",
                         "--node", "3", "--from", "10", "--to", "20", "--out",
                         "f.jsonl"},
                        {kTraceFilterTable}),
              "");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--out", "c.json"},
                        {kTraceExportChromeTable}),
              "");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--tolerance", "1e-6", "--expect",
                         "clusters.txt", "--print"},
                        {kTraceReplayCheckTable}),
              "");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--round", "121.11", "--dot", "g.dot",
                         "--json", "g.json", "--print"},
                        {kAnalyzeCouplingTable}),
              "");
    // `scenario run` for each builtin and `scenario sweep shared_lan`.
    EXPECT_EQ(rejection({"--core-routers", "5", "--filler-routes", "300", "--period",
                         "90", "--jitter", "0.1", "--pings", "100", "--max-time",
                         "900", "--seed", "2", "--non-blocking", "--incremental"},
                        {scenarios::kNearnetTable}),
              "");
    EXPECT_EQ(rejection({"--core-routers", "5", "--jitter", "0.1", "--bg-pps", "200",
                         "--max-time", "600", "--seed", "2"},
                        {scenarios::kAudiocastTable}),
              "");
    const Tokens shared_lan{
        "--queue", "red", "--n", "10", "--tp", "30", "--tr", "0.05", "--tc", "0.2",
        "--queue-cap", "8", "--red-min", "2", "--red-max", "6", "--red-maxp", "0.1",
        "--red-weight", "0.1", "--bg-burst", "10", "--bg-period", "0.05",
        "--max-time", "500", "--seed", "2", "--dispatch", "virtual", "--out",
        "lan.manifest.json"};
    Tokens run = shared_lan;
    for (const char* monitor :
         {"--monitor", "--sync-threshold", "0.9", "--sync-hysteresis", "0.05"}) {
        run.push_back(monitor);
    }
    EXPECT_EQ(rejection(run, {scenarios::kSharedLanTable,
                              scenarios::kSharedLanMonitorTable}),
              "");
    for (const char* queue : {"droptail", "drop-tail", "fifo"}) {
        EXPECT_EQ(rejection({"--queue", queue}, {scenarios::kSharedLanTable}), "");
    }
    Tokens sweep = shared_lan;
    for (const char* axis :
         {"--buffers", "4..16", "--loads", "0.8,1.2", "--trials", "2", "--jobs", "2"}) {
        sweep.push_back(axis);
    }
    EXPECT_EQ(
        rejection(sweep, {scenarios::kSharedLanTable, scenarios::kSweepAxesTable}), "");
    // The bench command line, with the observability flags of a binary
    // that wires all three (fig04).
    EXPECT_EQ(rejection({"--jobs", "4", "--seed", "3", "--quiet", "--trace",
                         "t.jsonl", "--out", "m.json", "--sample-every", "50",
                         "--profile", "--monitor"},
                        {bench::kBenchTable, kBenchObservability}),
              "");
    // A binary that lists none of them rejects each.
    for (const std::string flag : {"--trace", "--sample-every", "--monitor"}) {
        EXPECT_NE(rejection({flag, "1"}, {bench::kBenchTable}).find("unknown flag " + flag),
                  std::string::npos)
            << flag;
    }
}

/// `table`'s flag names, sorted.
std::vector<std::string> names(Table table) {
    std::vector<std::string> out;
    for (const FlagSpec& f : table) {
        out.emplace_back(f.name);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::string> sorted(std::vector<std::string> v) {
    std::sort(v.begin(), v.end());
    return v;
}

TEST(CliFlags, TablesNameExactlyTheFlagsTheirCommandsAcceptedBefore) {
    // The flag names each command accepted when its flags were name lists
    // beside hand-written usage strings; the tables add none. They drop
    // only flags that changed nothing: the benches' --json, and the
    // shared-LAN run's --trials and --jobs and the sweep's monitor flags,
    // now each declared by the one command that reports them.
    const std::vector<std::pair<Table, std::vector<std::string>>> expected{
        {kPmTable,
         {"n", "tp", "tr", "tc", "seed", "max-time", "sync-start", "reset-at-expiry",
          "half-period", "delta", "stop-on-sync", "stop-on-breakup", "rounds",
          "transmits", "stride", "monitor", "sync-threshold", "sync-hysteresis",
          "trace", "out", "sample-every"}},
        {kChainTable, {"n", "tp", "tr", "tc", "f2"}},
        {kSweepTable,
         {"n", "tp", "tr", "tc", "f2", "from", "to", "step", "jobs", "sim-trials",
          "sim-max-time", "seed", "trace", "out"}},
        {kThresholdTable, {"n", "tp", "tr", "tc", "f2", "n-max"}},
        {kF2Table, {"n", "tp", "tr", "tc", "reps", "seed", "jobs"}},
        {kTraceSummaryTable, {"in", "round", "bins"}},
        {kTraceFilterTable, {"in", "type", "node", "from", "to", "out"}},
        {kTraceExportChromeTable, {"in", "out"}},
        {kTraceReplayCheckTable, {"in", "tolerance", "expect", "print"}},
        {kAnalyzeCouplingTable, {"in", "round", "dot", "json", "print"}},
        {scenarios::kNearnetTable,
         {"core-routers", "filler-routes", "period", "jitter", "pings", "max-time",
          "seed", "non-blocking", "incremental"}},
        {scenarios::kAudiocastTable,
         {"core-routers", "jitter", "bg-pps", "max-time", "seed"}},
        {scenarios::kSharedLanTable,
         {"queue", "n", "tp", "tr", "tc", "queue-cap", "red-min", "red-max",
          "red-maxp", "red-weight", "bg-burst", "bg-period", "max-time", "seed",
          "dispatch", "out"}},
        {scenarios::kSharedLanMonitorTable,
         {"monitor", "sync-threshold", "sync-hysteresis"}},
        {scenarios::kSweepAxesTable, {"buffers", "loads", "trials", "jobs"}},
        {bench::kBenchTable, {"jobs", "seed", "quiet", "out", "profile"}},
        {kBenchObservability, {"trace", "sample-every", "monitor"}},
    };
    for (const auto& [table, flags] : expected) {
        EXPECT_EQ(names(table), sorted(flags));
    }
    // The shared-LAN run and sweep spell no flag twice.
    std::vector<std::string> lan = names(scenarios::kSharedLanTable);
    for (const Table table : {Table{scenarios::kSharedLanMonitorTable},
                              Table{scenarios::kSweepAxesTable}}) {
        const std::vector<std::string> more = names(table);
        lan.insert(lan.end(), more.begin(), more.end());
    }
    std::sort(lan.begin(), lan.end());
    EXPECT_EQ(std::adjacent_find(lan.begin(), lan.end()), lan.end());
    // The registry hands each builtin its tables; externals have none.
    scenarios::register_builtin_scenarios();
    int builtins = 0;
    for (const scenarios::ScenarioEntry& e :
         scenarios::ScenarioRegistry::instance().entries()) {
        EXPECT_EQ(e.is_builtin(), !e.flags.empty()) << e.name;
        builtins += e.is_builtin() ? 1 : 0;
    }
    EXPECT_EQ(builtins, 3);
    const std::vector<Table>& shared_lan =
        scenarios::ScenarioRegistry::instance().find("shared_lan")->flags;
    ASSERT_EQ(shared_lan.size(), 2U);
    EXPECT_EQ(shared_lan[0].data(), std::data(scenarios::kSharedLanTable));
    EXPECT_EQ(shared_lan[1].data(), std::data(scenarios::kSharedLanMonitorTable));
}

TEST(CliFlags, BuiltinScenariosRejectAndNameUnknownFlags) {
    // `scenario run shared_lan --qeueu red` used to run drop-tail, and
    // `scenario sweep shared_lan --bogus 3` to exit 0.
    EXPECT_EQ(rejection({"--qeueu", "red"}, {scenarios::kSharedLanTable}),
              "unknown flag --qeueu");
    EXPECT_EQ(rejection({"--bogus", "3"},
                        {scenarios::kSharedLanTable, scenarios::kSweepAxesTable}),
              "unknown flag --bogus");
    EXPECT_EQ(rejection({"--jiter", "0.1"}, {scenarios::kNearnetTable}),
              "unknown flag --jiter");
    EXPECT_EQ(rejection({"--bg-ppps", "200"}, {scenarios::kAudiocastTable}),
              "unknown flag --bg-ppps");
    // The grid axes belong to the sweep, and one testbed's knobs are not
    // another's.
    EXPECT_EQ(rejection({"--buffers", "4..16"}, {scenarios::kSharedLanTable}),
              "unknown flag --buffers");
    EXPECT_EQ(rejection({"--pings", "10"}, {scenarios::kAudiocastTable}),
              "unknown flag --pings");
    EXPECT_EQ(rejection({"--trials", "2"}, {scenarios::kNearnetTable}),
              "unknown flag --trials");
    // The shared-LAN run is one scenario: `--trials` and `--jobs` ran a
    // second multi-trial path or changed nothing. The sweep reports no
    // monitor: `--monitor` and its settings changed no byte of stdout.
    for (const char* flag : {"--trials", "--jobs"}) {
        EXPECT_EQ(rejection({flag, "2"}, {scenarios::kSharedLanTable,
                                          scenarios::kSharedLanMonitorTable}),
                  "unknown flag " + std::string{flag});
    }
    EXPECT_EQ(rejection({"--monitor"},
                        {scenarios::kSharedLanTable, scenarios::kSweepAxesTable}),
              "unknown flag --monitor");
    for (const char* flag : {"--sync-threshold", "--sync-hysteresis"}) {
        EXPECT_EQ(rejection({flag, "0.5"},
                            {scenarios::kSharedLanTable, scenarios::kSweepAxesTable}),
                  "unknown flag " + std::string{flag});
    }
    // Through the registry too, and `--non-blocking 0` is not a boolean.
    expect_rejected_quietly("nearnet", {"--non-blocking", "0"});
    expect_rejected_quietly("audiocast", {"--pings", "10"});
    expect_rejected_quietly("shared_lan", {"--trials", "2", "--max-time", "1"});
    expect_rejected_quietly("shared_lan", {"--jobs", "2", "--max-time", "1"});
}

TEST(CliFlags, SharedLanRejectsABackgroundSourceThatCannotAdvance) {
    // `scenario run shared_lan --bg-period 0` and the sweep with it hung;
    // `--max-time -5` ran nothing and exited 0. Each now throws, which
    // the CLI reports with exit 2.
    expect_rejected_quietly("shared_lan", {"--bg-period", "0"});
    expect_rejected_quietly("shared_lan", {"--max-time", "-5"});
    expect_sweep_rejected_quietly({"--bg-period", "0", "--trials", "2"});
    expect_sweep_rejected_quietly(
        {"--bg-period", "0", "--loads", "0.8,1.2", "--max-time", "10"});
    expect_sweep_rejected_quietly({"--max-time", "-5"});
}

TEST(CliFlags, SharedLanRejectsJunkJobsAndTrialsBeforeAnyCellRuns) {
    // The shared-LAN runners read --jobs and --trials with atoi: `--jobs
    // -1` started one thread per cell, and `--jobs 2x --trials 2x` ran 2
    // cells on 2 workers. The sweep, the one command that takes them
    // now, rejects both before a cell runs, so nothing reaches stdout.
    const std::vector<Tokens> junk{
        {"--jobs", "-1", "--trials", "2", "--max-time", "1"},
        {"--jobs", "2x", "--trials", "2", "--max-time", "1"},
        {"--trials", "2x", "--max-time", "1"},
        {"--trials", "0", "--max-time", "1"},
        {"--jobs", "-1", "--max-time", "1"},
    };
    for (const Tokens& tokens : junk) {
        expect_sweep_rejected_quietly(tokens);
        const std::string why =
            rejection(tokens, {scenarios::kSharedLanTable, scenarios::kSweepAxesTable});
        EXPECT_NE(why.find(tokens[0]), std::string::npos) << why;
    }
}

TEST(CliFlags, SweepGridRejectsAStepThatCannotAdvance) {
    // `routesync sweep --step 0` (or --step abc, which atof read as 0)
    // appended to the grid until allocation failed.
    EXPECT_THROW(sweep_grid(0.5, 3.0, 0.0), std::invalid_argument);
    EXPECT_THROW(sweep_grid(0.5, 3.0, -0.05), std::invalid_argument);
    EXPECT_THROW(sweep_grid(0.5, 3.0, std::nan("")), std::invalid_argument);
    EXPECT_THROW(sweep_grid(0.5, 3.0, std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    // A positive step below the spacing of doubles near --from never
    // moves it; the point cap ends the loop.
    EXPECT_THROW(sweep_grid(0.5, 3.0, 1e-17), std::invalid_argument);
    EXPECT_THROW(sweep_grid(0.0, static_cast<double>(kMaxSweepPoints), 1.0),
                 std::invalid_argument);
    EXPECT_EQ(sweep_grid(0.0, static_cast<double>(kMaxSweepPoints - 1), 1.0).size(),
              kMaxSweepPoints);
}

TEST(CliFlags, SweepGridAccumulatesOneStepAtATime) {
    // The default grid, built exactly as the CLI always built it: the
    // rounding that accumulates over 50 steps stays in every value.
    const std::vector<double> grid = sweep_grid(0.5, 3.0, 0.05);
    ASSERT_EQ(grid.size(), 51U);
    double x = 0.5;
    for (const double value : grid) {
        EXPECT_EQ(value, x);
        x += 0.05;
    }
    EXPECT_EQ(sweep_grid(1.0, 1.0, 0.2), (std::vector<double>{1.0}));
    EXPECT_TRUE(sweep_grid(2.0, 1.0, 0.2).empty());
}

TEST(CliFlags, SimTrialsRejectsNegativesAndJunk) {
    // `sweep --sim-trials -3` exited 0 without the simulation column.
    EXPECT_EQ(parse({}, {kSweepTable}).integer("sim-trials", 0), 0);
    EXPECT_EQ(parse(Tokens{"--sim-trials", "0"}, {kSweepTable}).integer("sim-trials", 5), 0);
    EXPECT_EQ(parse(Tokens{"--sim-trials", "2"}, {kSweepTable}).integer("sim-trials", 0), 2);
    EXPECT_THROW(parse(Tokens{"--sim-trials", "-3"}, {kSweepTable}), std::invalid_argument);
    EXPECT_THROW(parse(Tokens{"--sim-trials", "2x"}, {kSweepTable}), std::invalid_argument);
}

TEST(CliFlags, TrialsDefaultsToFallbackWhenAbsent) {
    EXPECT_EQ(parse_test({}).integer("trials", 1), 1);
    EXPECT_EQ(parse_test({}).integer("trials", 5), 5);
}

TEST(CliFlags, TrialsParsesPositiveIntegersAndEqualsForm) {
    EXPECT_EQ(parse_test({"--trials", "4"}).integer("trials", 1), 4);
    EXPECT_EQ(parse_test({"--trials", "1"}).integer("trials", 8), 1);
    EXPECT_EQ(parse_test({"--trials=16"}).integer("trials", 1), 16);
}

TEST(CliFlags, TrialsRejectsZeroNegativesAndJunk) {
    // 0 trials is a no-op nobody means — unlike --jobs there is no
    // auto-detect reading, so it is an error, not a fallback.
    for (const char* junk : {"0", "-3", "two", "2x", ""}) {
        EXPECT_THROW(parse_test({"--trials", junk}), std::invalid_argument) << junk;
    }
    // Beyond int: 2^32 + 1 used to wrap to 1.
    EXPECT_THROW(parse_test({"--trials", "4294967297"}), std::invalid_argument);
}

TEST(CliFlags, TrialsErrorMessageNamesTheFlag) {
    EXPECT_EQ(rejection({"--trials", "2x"}, {kTestTable}),
              "--trials must be an integer in [1, 2147483647], got '2x'");
}

TEST(CliFlags, UndeclaredOrMistypedReadsAreLogicErrors) {
    // A read the table forgot fails here, not as "unknown flag" for a user.
    const Args a = parse_test({"--n", "3"});
    EXPECT_THROW((void)a.integer("bogus", 0), std::logic_error);
    EXPECT_THROW((void)a.has("bogus"), std::logic_error);
    EXPECT_THROW((void)a.real("n", 0.0), std::logic_error);
    EXPECT_THROW((void)a.flag("n"), std::logic_error);
    EXPECT_THROW((void)a.text("queue"), std::logic_error);
    EXPECT_THROW((void)Args{}.flag("rounds"), std::logic_error);
    // The logic errors are not usage errors.
    try {
        (void)a.integer("bogus", 0);
    } catch (const std::invalid_argument&) {
        FAIL() << "an undeclared read is not the user's error";
    } catch (const std::logic_error&) {
    }
}

TEST(CliFlags, UsagePrintsEveryEntryOfTheTables) {
    EXPECT_EQ(usage({kChainTable}),
              "[--n N] [--tp SEC] [--tr SEC] [--tc SEC] [--f2 ROUNDS]");
    EXPECT_EQ(usage({kTraceReplayCheckTable}),
              "[--in FILE] [--tolerance SEC] [--expect FILE] [--print]");
    const std::string lan = usage({scenarios::kSharedLanTable}, 4);
    EXPECT_NE(lan.find("[--queue red|droptail|drop-tail|fifo]"), std::string::npos);
    std::size_t start = 0;
    for (std::size_t end = lan.find('\n'); start < lan.size();
         end = lan.find('\n', start)) {
        const std::size_t stop = end == std::string::npos ? lan.size() : end;
        EXPECT_LE(stop - start + (start == 0 ? 4 : 0), 79U) << lan;
        start = stop + 1;
    }
    for (const FlagSpec& f : scenarios::kSharedLanTable) {
        EXPECT_NE(lan.find("[--" + std::string{f.name}), std::string::npos) << f.name;
    }
}

// ---- mutation test ------------------------------------------------------

/// A value read back from a parse, or what a spelling denotes.
using Value = std::variant<bool, long, double, std::uint64_t, std::string>;

/// What `text` denotes as a value of `f`, by rules independent of the
/// parser (std::from_chars): strtol/strtod skip leading white space and
/// take one sign, strtod reads hex; a seed is decimal digits only.
/// nullopt when the spelling is no valid value of `f`.
std::optional<Value> denotes(const FlagSpec& f, std::string text) {
    if (f.kind == Kind::String) {
        return text.empty() && f.min > 0.0 ? std::nullopt : std::optional<Value>{text};
    }
    if (f.kind == Kind::Enum) {
        return is_choice(f.value, text) ? std::optional<Value>{text} : std::nullopt;
    }
    if (f.kind == Kind::Seed) {
        std::uint64_t u = 0;
        const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), u);
        const bool digits = !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
            return c >= '0' && c <= '9';
        });
        return digits && ec == std::errc{} && end == text.data() + text.size()
                   ? std::optional<Value>{u}
                   : std::nullopt;
    }
    const std::size_t lead = text.find_first_not_of(" \t\n\v\f\r");
    text.erase(0, lead == std::string::npos ? text.size() : lead);
    bool negative = false;
    if (!text.empty() && (text[0] == '+' || text[0] == '-')) {
        negative = text[0] == '-';
        text.erase(0, 1);
    }
    if (text.empty() || text[0] == '+' || text[0] == '-') {
        return std::nullopt;
    }
    const char* first = text.data();
    const char* last = text.data() + text.size();
    if (f.kind == Kind::Int) {
        unsigned long magnitude = 0;
        const auto [end, ec] = std::from_chars(first, last, magnitude);
        const unsigned long limit = static_cast<unsigned long>(
                                        std::numeric_limits<long>::max()) +
                                    (negative ? 1UL : 0UL);
        if (ec != std::errc{} || end != last || magnitude > limit) {
            return std::nullopt;
        }
        const long n = negative ? static_cast<long>(0UL - magnitude) : static_cast<long>(magnitude);
        const auto x = static_cast<double>(n);
        return x >= f.min && x <= f.max ? std::optional<Value>{n} : std::nullopt;
    }
    double x = 0.0;
    auto format = std::chars_format::general;
    if (text.size() > 1 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
        first += 2;
        format = std::chars_format::hex;
    }
    const auto [end, ec] = std::from_chars(first, last, x, format);
    if (ec != std::errc{} || end != last || !std::isfinite(x) ||
        (x != 0.0 && std::fabs(x) < std::numeric_limits<double>::min())) {
        return std::nullopt; // junk, out of range, or lost to underflow
    }
    x = negative ? -x : x;
    return x >= f.min && x <= f.max && !(f.above && x == f.min) ? std::optional<Value>{x}
                                                                : std::nullopt;
}

/// `f`'s value read back from `args` (the flag was given).
Value read_back(const Args& args, const FlagSpec& f) {
    switch (f.kind) {
    case Kind::Bool:
        return args.flag(f.name);
    case Kind::Int:
        return args.integer<long>(f.name, 0);
    case Kind::Real:
        return args.real(f.name, 0.0);
    case Kind::Seed:
        return args.seed(f.name, 0);
    case Kind::Enum:
        return args.choice(f.name, "");
    case Kind::String:
        return args.text(f.name);
    }
    return false;
}

/// The value's canonical spelling: what `--name <it>` must read back as.
std::string canonical(const Value& v) {
    if (const auto* n = std::get_if<long>(&v)) {
        return std::to_string(*n);
    }
    if (const auto* u = std::get_if<std::uint64_t>(&v)) {
        return std::to_string(*u);
    }
    if (const auto* x = std::get_if<double>(&v)) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", *x);
        return buf;
    }
    return std::get<std::string>(v);
}

/// One valid value of `f`.
std::string valid_value(const FlagSpec& f) {
    switch (f.kind) {
    case Kind::Int:
        return std::to_string(std::max(3L, static_cast<long>(f.min)));
    case Kind::Real:
        return "0.5";
    case Kind::Seed:
        return "7";
    case Kind::Enum:
        return std::string{f.value.substr(0, f.value.find('|'))};
    default:
        return "x.out";
    }
}

/// Checks one command line for flag `f` of `table`: it parses and reads
/// back `expected` (the value its spelling denotes) or throws
/// std::invalid_argument naming the flag; anything else fails.
void check_mutant(Table table, const FlagSpec& f, const Tokens& tokens,
                  const std::optional<Value>& expected, bool must_parse = false) {
    std::string where;
    for (const std::string& t : tokens) {
        where += "[" + t + "]";
    }
    try {
        const Args args = parse(tokens, {table});
        ASSERT_TRUE(expected.has_value()) << where << " was accepted";
        const Value got = read_back(args, f);
        EXPECT_EQ(got, *expected) << where;
        if (f.kind != Kind::Bool) {
            // The canonical spelling reads back the same value.
            const Tokens again{"--" + std::string{f.name}, canonical(got)};
            EXPECT_EQ(read_back(parse(again, {table}), f), got) << where;
        }
    } catch (const std::invalid_argument& e) {
        EXPECT_FALSE(must_parse) << where << ": " << e.what();
        EXPECT_NE(std::string{e.what()}.find("--" + std::string{f.name}),
                  std::string::npos)
            << where << ": " << e.what();
    } catch (const std::exception& e) {
        ADD_FAILURE() << where << " threw something else: " << e.what();
    }
}

TEST(CliFlags, MutatedValuesReadBackOrNameTheFlag) {
    const std::vector<Table> tables{
        kPmTable,           kChainTable,          kSweepTable,
        kThresholdTable,    kF2Table,             kTraceSummaryTable,
        kTraceFilterTable,  kTraceExportChromeTable, kTraceReplayCheckTable,
        kAnalyzeCouplingTable, scenarios::kNearnetTable, scenarios::kAudiocastTable,
        scenarios::kSharedLanTable, scenarios::kSharedLanMonitorTable,
        scenarios::kSweepAxesTable, bench::kBenchTable, kBenchObservability};
    std::mt19937_64 rng{0x5eed'f1a6ULL};
    int checked = 0;
    for (const Table table : tables) {
        for (const FlagSpec& f : table) {
            const std::string flag = "--" + std::string{f.name};
            if (f.kind == Kind::Bool) {
                check_mutant(table, f, {flag}, Value{true}, true);
                for (const char* v : {"1", "0", "", "yes"}) {
                    check_mutant(table, f, {flag + "=" + v}, std::nullopt);
                    check_mutant(table, f, {flag, v}, std::nullopt);
                }
                checked += 9;
                continue;
            }
            const std::string good = valid_value(f);
            std::vector<std::string> mutants{
                good, "", good + "x", " " + good, "+" + good, "-" + good,
                "0x10", "1e999", "nan", "inf", "-inf", "1,5", good + " "};
            const auto step = [](double x, long by) {
                return std::to_string(static_cast<long>(x) + by);
            };
            if (f.kind == Kind::Int) {
                mutants.push_back(step(f.min, -1));
                if (f.max == kUnbounded) {
                    mutants.emplace_back("9223372036854775808");
                } else {
                    mutants.push_back(step(f.max, 1));
                }
            } else if (f.kind == Kind::Real && f.above) {
                mutants.emplace_back("0");
                mutants.emplace_back("-0");
                mutants.emplace_back("-1e-300");
            } else if (f.kind == Kind::Seed) {
                mutants.emplace_back("-1");
                mutants.emplace_back("18446744073709551616");
            } else if (f.kind == Kind::Enum) {
                mutants.push_back(good + "s");
            }
            // Seeded noise: one printable character inserted into, or one
            // deleted from, the valid spelling.
            for (int i = 0; i < 8; ++i) {
                std::string m = good;
                const std::size_t at = rng() % (m.size() + 1);
                if (i % 2 == 0 || m.empty()) {
                    m.insert(at, 1, static_cast<char>(' ' + rng() % 95));
                } else {
                    m.erase(std::min(at, m.size() - 1), 1);
                }
                mutants.push_back(std::move(m));
            }
            // The valid value must parse, in both spellings.
            check_mutant(table, f, {flag, good}, denotes(f, good), true);
            check_mutant(table, f, {flag + "=" + good}, denotes(f, good), true);
            for (const std::string& m : mutants) {
                if (m.starts_with("--")) {
                    continue; // a flag, not a value
                }
                check_mutant(table, f, {flag, m}, denotes(f, m));
                check_mutant(table, f, {flag + "=" + m}, denotes(f, m));
                checked += 2;
            }
            // A missing value: none left, or the next token is a flag.
            check_mutant(table, f, {flag}, std::nullopt);
            check_mutant(table, f, {flag, "--" + std::string{table[0].name == f.name
                                                                 ? table.back().name
                                                                 : table[0].name}},
                         std::nullopt);
            // `--name=`: the empty value.
            check_mutant(table, f, {flag + "="}, denotes(f, ""));
            checked += 3;
        }
    }
    EXPECT_GT(checked, 3000);
}

} // namespace
