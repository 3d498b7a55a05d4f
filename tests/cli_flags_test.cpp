// Tests for the CLI flag parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scenarios/registry.hpp"
#include "tools/flags.hpp"

namespace {

using namespace routesync::cli;
namespace scenarios = routesync::scenarios;

Flags parse(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return parse_flags(static_cast<int>(args.size()),
                       const_cast<char**>(args.data()), 1);
}

TEST(CliFlags, ParsesNameValuePairs) {
    const auto f = parse({"--n", "20", "--tp", "121.5"});
    EXPECT_EQ(flag_i(f, "n", 0), 20);
    EXPECT_DOUBLE_EQ(flag_d(f, "tp", 0.0), 121.5);
}

TEST(CliFlags, ParsesEqualsSignForm) {
    const auto f = parse({"--n=20", "--tp=121.5", "--trace=out.jsonl"});
    EXPECT_EQ(flag_i(f, "n", 0), 20);
    EXPECT_DOUBLE_EQ(flag_d(f, "tp", 0.0), 121.5);
    EXPECT_EQ(flag_s(f, "trace"), "out.jsonl");
}

TEST(CliFlags, EqualsFormWithEmptyValueStoresEmpty) {
    const auto f = parse({"--out="});
    EXPECT_TRUE(flag_b(f, "out"));
    EXPECT_EQ(flag_s(f, "out", "fallback"), "");
}

TEST(CliFlags, StringFlagFallback) {
    const auto f = parse({"--trace", "t.jsonl"});
    EXPECT_EQ(flag_s(f, "trace"), "t.jsonl");
    EXPECT_EQ(flag_s(f, "absent", "dflt"), "dflt");
}

TEST(CliFlags, BooleanFlagsGetOne) {
    const auto f = parse({"--sync-start", "--n", "5", "--rounds"});
    EXPECT_TRUE(flag_b(f, "sync-start"));
    EXPECT_TRUE(flag_b(f, "rounds"));
    EXPECT_FALSE(flag_b(f, "absent"));
    EXPECT_EQ(flag_i(f, "n", 0), 5);
}

TEST(CliFlags, FallbacksApplyWhenAbsent) {
    const auto f = parse({});
    EXPECT_EQ(flag_i(f, "n", 42), 42);
    EXPECT_DOUBLE_EQ(flag_d(f, "tp", 3.5), 3.5);
}

TEST(CliFlags, ScientificNotationValues) {
    const auto f = parse({"--max-time", "1e7"});
    EXPECT_DOUBLE_EQ(flag_d(f, "max-time", 0.0), 1e7);
}

TEST(CliFlags, NegativeNumbersAreValues) {
    const auto f = parse({"--offset", "-3"});
    EXPECT_EQ(flag_i(f, "offset", 0), -3);
}

TEST(CliFlags, NonFlagTokenThrows) {
    EXPECT_THROW(parse({"bogus"}), std::invalid_argument);
    EXPECT_THROW(parse({"--n", "20", "stray", "--x"}), std::invalid_argument);
}

TEST(CliFlags, EmptyFlagNameThrows) {
    EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(CliFlags, LastOccurrenceWins) {
    const auto f = parse({"--n", "5", "--n", "9"});
    EXPECT_EQ(flag_i(f, "n", 0), 9);
}

TEST(CliFlags, IntegerAndRealFlagsRejectJunk) {
    // flag_i and flag_d used atoi/atof: `pm --n 5x` ran N = 5 and
    // `pm --tr 0.1abc` ran Tr = 0.1. Empty values, trailing junk and
    // values out of range now throw, naming the flag.
    for (const char* junk : {"5x", "", "five", "2.5", "99999999999", "0x10"}) {
        EXPECT_THROW(flag_i(parse({"--n", junk}), "n", 0), std::invalid_argument)
            << "'" << junk << "'";
    }
    for (const char* junk : {"0.1abc", "", "abc", "1e999", "nan", "inf", "1,5"}) {
        EXPECT_THROW(flag_d(parse({"--tr", junk}), "tr", 0.0), std::invalid_argument)
            << "'" << junk << "'";
    }
    EXPECT_EQ(flag_i(parse({"--n", "-7"}), "n", 0), -7);
    EXPECT_EQ(flag_i(parse({"--n", "2147483647"}), "n", 0), 2147483647);
    EXPECT_DOUBLE_EQ(flag_d(parse({"--tr", "-0.5"}), "tr", 0.0), -0.5);
    EXPECT_DOUBLE_EQ(flag_d(parse({"--tr", ".25"}), "tr", 0.0), 0.25);
    try {
        (void)flag_d(parse({"--tr", "0.1abc"}), "tr", 0.0);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string{e.what()}, "--tr must be a number, got '0.1abc'");
    }
    try {
        (void)flag_i(parse({"--n", "5x"}), "n", 0);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string{e.what()},
                  "--n must be an integer in [-2147483648, 2147483647], got '5x'");
    }
}

TEST(CliFlags, SeedTakesDecimalDigitsUpToTwoToThe64MinusOne) {
    // Seeds used to be read as int and cast (`pm --seed -1` ran seed
    // 2^64 - 1, `pm --seed 3000000000` was rejected), and the benches took
    // strtoull's sign. Every seed field is 64-bit unsigned.
    EXPECT_EQ(flag_seed(parse({}), 7), 7U);
    EXPECT_EQ(flag_seed(parse({"--seed", "0"}), 7), 0U);
    EXPECT_EQ(flag_seed(parse({"--seed", "3000000000"}), 7), 3000000000ULL);
    EXPECT_EQ(flag_seed(parse({"--seed=18446744073709551615"}), 7),
              std::numeric_limits<std::uint64_t>::max());
    for (const char* junk : {"-1", "+1", "1x", "", "18446744073709551616", " 1", "1e3"}) {
        EXPECT_THROW(flag_seed(parse({"--seed", junk}), 7), std::invalid_argument)
            << "'" << junk << "'";
    }
    try {
        (void)flag_seed(parse({"--seed", "-1"}), 7);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string{e.what()},
                  "--seed must be an integer in [0, 18446744073709551615], got '-1'");
    }
    scenarios::register_builtin_scenarios();
    const auto& registry = scenarios::ScenarioRegistry::instance();
    testing::internal::CaptureStdout();
    for (const char* builtin : {"shared_lan", "nearnet", "audiocast"}) {
        EXPECT_THROW(registry.run(builtin, {{"seed", "-1"}, {"max-time", "1"}}),
                     std::invalid_argument)
            << builtin;
    }
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
}

TEST(CliFlags, SharedLanRejectsJunkNumbersBeforeItRuns) {
    scenarios::register_builtin_scenarios();
    const auto& registry = scenarios::ScenarioRegistry::instance();
    testing::internal::CaptureStdout();
    EXPECT_THROW(registry.run("shared_lan", {{"n", "3x"}, {"max-time", "1"}}),
                 std::invalid_argument);
    EXPECT_THROW(registry.run("shared_lan", {{"max-time", "1s"}}),
                 std::invalid_argument);
    EXPECT_THROW(scenarios::run_shared_lan_sweep(
                     {{"red-maxp", "0.1%"}, {"max-time", "1"}}),
                 std::invalid_argument);
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
}

TEST(CliFlags, JobsDefaultsToFallbackWhenAbsent) {
    EXPECT_EQ(flag_jobs(parse({}), 7), 7U);
}

TEST(CliFlags, JobsParsesPositiveIntegers) {
    EXPECT_EQ(flag_jobs(parse({"--jobs", "4"}), 1), 4U);
    EXPECT_EQ(flag_jobs(parse({"--jobs", "1"}), 8), 1U);
    EXPECT_EQ(flag_jobs(parse({"--jobs", "64"}), 1), 64U);
}

TEST(CliFlags, JobsZeroMeansAutoDetect) {
    // 0 falls back to the caller-supplied default, which call sites set to
    // parallel::hardware_jobs().
    EXPECT_EQ(flag_jobs(parse({"--jobs", "0"}), 6), 6U);
}

TEST(CliFlags, JobsRejectsNegatives) {
    EXPECT_THROW(flag_jobs(parse({"--jobs", "-2"}), 1), std::invalid_argument);
}

TEST(CliFlags, JobsRejectsJunk) {
    EXPECT_THROW(flag_jobs(parse({"--jobs", "four"}), 1), std::invalid_argument);
    EXPECT_THROW(flag_jobs(parse({"--jobs", "4x"}), 1), std::invalid_argument);
}

TEST(CliFlags, JobsErrorMessageNamesTheFlag) {
    try {
        flag_jobs(parse({"--jobs", "-1"}), 1);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string{e.what()}.find("--jobs"), std::string::npos);
        EXPECT_NE(std::string{e.what()}.find("auto-detect"), std::string::npos);
    }
}

TEST(CliFlags, RejectUnknownFlagsNamesTheFirstUnknownFlag) {
    constexpr std::string_view known[] = {"n", "from"};
    EXPECT_NO_THROW(reject_unknown_flags(parse({}), known));
    EXPECT_NO_THROW(reject_unknown_flags(parse({"--n", "5", "--from=1"}), known));
    try {
        reject_unknown_flags(parse({"--zeta", "1", "--n", "5", "--bogus", "3"}),
                             known);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        // Flags are checked in name order: --bogus sorts before --zeta.
        EXPECT_EQ(std::string{e.what()}, "unknown flag --bogus");
    }
}

TEST(CliFlags, SweepRejectsBatchAndUnknownFlags) {
    // --batch is retired: a sweep that still passes it must fail, not
    // silently run with the flag dropped.
    EXPECT_THROW(reject_unknown_flags(parse({"--n", "5", "--batch", "4"}),
                                      kSweepFlags),
                 std::invalid_argument);
    EXPECT_THROW(reject_unknown_flags(parse({"--n", "5", "--from", "1", "--to",
                                             "1.2", "--step", "0.2", "--bogus",
                                             "3"}),
                                      kSweepFlags),
                 std::invalid_argument);
}

TEST(CliFlags, SweepAcceptsEveryDocumentedFlag) {
    // The tsan_sweep_smoke ctest entry.
    EXPECT_NO_THROW(reject_unknown_flags(
        parse({"--n", "20", "--tp", "121", "--tc", "0.11", "--from", "0.6",
               "--to", "3.0", "--step", "0.2", "--sim-trials", "2",
               "--sim-max-time", "2000", "--jobs", "8"}),
        kSweepFlags));
    // README.md and docs/OBSERVABILITY.md.
    EXPECT_NO_THROW(reject_unknown_flags(
        parse({"--n", "20", "--tp", "121", "--tc", "0.11", "--from", "0.5",
               "--to", "3", "--step", "0.05", "--trace", "sweep.jsonl", "--out",
               "sweep.manifest.json"}),
        kSweepFlags));
    // The rest of the usage line, and the chain parameters it shares
    // with `chain`.
    EXPECT_NO_THROW(reject_unknown_flags(
        parse({"--seed", "3", "--tr", "0.11", "--f2", "19"}), kSweepFlags));
}

/// The message reject_unknown_flags throws for `args` against `known`,
/// or "" when every flag is known.
std::string rejection(std::vector<const char*> args,
                      std::span<const std::string_view> known) {
    try {
        reject_unknown_flags(parse(std::move(args)), known);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return {};
}

TEST(CliFlags, PmChainThresholdAndF2RejectAndNameUnknownFlags) {
    // `pm --maxtime 2000` used to run the default 1e5 s without a word.
    EXPECT_EQ(rejection({"--n", "20", "--maxtime", "2000"}, kPmFlags),
              "unknown flag --maxtime");
    EXPECT_EQ(rejection({"--n", "20", "--bogus", "1"}, kChainFlags),
              "unknown flag --bogus");
    EXPECT_EQ(rejection({"--n", "20", "--bogus", "1"}, kThresholdFlags),
              "unknown flag --bogus");
    EXPECT_EQ(rejection({"--n", "20", "--bogus", "1"}, kF2Flags),
              "unknown flag --bogus");
    // Flags of one command are not silently taken by another: f2
    // estimates f(2) by simulation, and chain runs no simulation.
    EXPECT_EQ(rejection({"--f2", "19"}, kF2Flags), "unknown flag --f2");
    EXPECT_EQ(rejection({"--seed", "3"}, kChainFlags), "unknown flag --seed");
    EXPECT_EQ(rejection({"--max-time", "10"}, kThresholdFlags),
              "unknown flag --max-time");
}

TEST(CliFlags, TraceAndAnalyzeRejectAndNameUnknownFlags) {
    // `trace replay-check --tolerence 1` used to exit 0 with the default
    // 1e-6 s tolerance.
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--tolerence", "1"},
                        kTraceReplayCheckFlags),
              "unknown flag --tolerence");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--bin", "10"}, kTraceSummaryFlags),
              "unknown flag --bin");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--types", "update_tx"},
                        kTraceFilterFlags),
              "unknown flag --types");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--output", "c.json"},
                        kTraceExportChromeFlags),
              "unknown flag --output");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--rounds", "121.11"},
                        kAnalyzeCouplingFlags),
              "unknown flag --rounds");
    // One action's flags are not taken by another.
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--out", "x"}, kTraceSummaryFlags),
              "unknown flag --out");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--tolerance", "1e-6"},
                        kAnalyzeCouplingFlags),
              "unknown flag --tolerance");
}

TEST(CliFlags, EveryCommandAcceptsItsUsageFlags) {
    // Every flag of each command's usage line (tools/routesync_cli.cpp).
    EXPECT_EQ(rejection({"--n", "20", "--tp", "121", "--tr", "0.1", "--tc", "0.11",
                         "--seed", "3", "--max-time", "1e5", "--sync-start",
                         "--reset-at-expiry", "--half-period", "--delta", "0.5",
                         "--stop-on-sync", "--stop-on-breakup", "2", "--rounds",
                         "--transmits", "--stride", "4", "--monitor",
                         "--sync-threshold", "0.9", "--sync-hysteresis", "0.05",
                         "--trace", "pm.jsonl", "--out", "pm.manifest.json",
                         "--sample-every", "100"},
                        kPmFlags),
              "");
    EXPECT_EQ(rejection({"--n", "20", "--tp", "121", "--tr", "0.11", "--tc", "0.11",
                         "--f2", "19"},
                        kChainFlags),
              "");
    EXPECT_EQ(rejection({"--n", "20", "--tp", "30", "--tr", "0.11", "--tc", "0.3",
                         "--f2", "19", "--n-max", "100"},
                        kThresholdFlags),
              "");
    EXPECT_EQ(rejection({"--n", "20", "--tp", "121", "--tr", "0.1", "--tc", "0.11",
                         "--reps", "20", "--seed", "3", "--jobs", "4"},
                        kF2Flags),
              "");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--round", "121.11", "--bins", "20"},
                        kTraceSummaryFlags),
              "");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--type", "update_tx,timer_set",
                         "--node", "3", "--from", "10", "--to", "20", "--out",
                         "f.jsonl"},
                        kTraceFilterFlags),
              "");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--out", "c.json"},
                        kTraceExportChromeFlags),
              "");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--tolerance", "1e-6", "--expect",
                         "clusters.txt", "--print"},
                        kTraceReplayCheckFlags),
              "");
    EXPECT_EQ(rejection({"--in", "t.jsonl", "--round", "121.11", "--dot", "g.dot",
                         "--json", "g.json", "--print"},
                        kAnalyzeCouplingFlags),
              "");
    // `scenario run` for each builtin (scenarios/registry.cpp's flag
    // cheat-sheets) and `scenario sweep shared_lan`.
    EXPECT_EQ(rejection({"--core-routers", "5", "--filler-routes", "300", "--period",
                         "90", "--jitter", "0.1", "--pings", "100", "--max-time",
                         "900", "--seed", "2", "--non-blocking", "--incremental"},
                        scenarios::kNearnetFlags),
              "");
    EXPECT_EQ(rejection({"--core-routers", "5", "--jitter", "0.1", "--bg-pps", "200",
                         "--max-time", "600", "--seed", "2"},
                        scenarios::kAudiocastFlags),
              "");
    const std::vector<const char*> shared_lan{
        "--queue", "red", "--n", "10", "--tp", "30", "--tr", "0.05", "--tc", "0.2",
        "--queue-cap", "8", "--red-min", "2", "--red-max", "6", "--red-maxp", "0.1",
        "--red-weight", "0.1", "--bg-burst", "10", "--bg-period", "0.05",
        "--max-time", "500", "--seed", "2", "--trials", "2", "--jobs", "2",
        "--dispatch", "virtual", "--monitor", "--sync-threshold", "0.9",
        "--sync-hysteresis", "0.05", "--out", "lan.manifest.json"};
    EXPECT_EQ(rejection(shared_lan, scenarios::kSharedLanFlags), "");
    std::vector<const char*> sweep = shared_lan;
    for (const char* extra : {"--buffers", "4..16", "--loads", "0.8,1.2"}) {
        sweep.push_back(extra);
    }
    EXPECT_EQ(rejection(sweep, scenarios::kSharedLanSweepFlags), "");
}

TEST(CliFlags, BuiltinScenarioFlagListsMatchTheirCheatSheets) {
    // `scenario list` prints flags_help; the command accepts entry.flags.
    // The two name the same flags, so the cheat-sheet cannot advertise a
    // flag the command rejects, nor hide one it reads.
    scenarios::register_builtin_scenarios();
    int builtins = 0;
    for (const scenarios::ScenarioEntry& e :
         scenarios::ScenarioRegistry::instance().entries()) {
        if (!e.is_builtin()) {
            EXPECT_TRUE(e.flags.empty()) << e.name;
            continue;
        }
        ++builtins;
        std::vector<std::string> help;
        for (std::size_t at = e.flags_help.find("--"); at != std::string::npos;
             at = e.flags_help.find("--", at + 2)) {
            const std::size_t end = e.flags_help.find_first_of(" ]", at);
            help.push_back(e.flags_help.substr(at + 2, end - at - 2));
        }
        std::vector<std::string> known(e.flags.begin(), e.flags.end());
        std::sort(help.begin(), help.end());
        std::sort(known.begin(), known.end());
        EXPECT_EQ(help, known) << e.name;
    }
    EXPECT_EQ(builtins, 3);
    // The sweep reads every shared_lan flag, plus its grid axes.
    for (const std::string_view flag : scenarios::kSharedLanFlags) {
        EXPECT_NE(std::find(std::begin(scenarios::kSharedLanSweepFlags),
                            std::end(scenarios::kSharedLanSweepFlags), flag),
                  std::end(scenarios::kSharedLanSweepFlags))
            << flag;
    }
    EXPECT_EQ(std::size(scenarios::kSharedLanSweepFlags),
              std::size(scenarios::kSharedLanFlags) + 2);
}

TEST(CliFlags, BuiltinScenariosRejectAndNameUnknownFlags) {
    // `scenario run shared_lan --qeueu red` used to run drop-tail, and
    // `scenario sweep shared_lan --bogus 3` to exit 0.
    EXPECT_EQ(rejection({"--qeueu", "red"}, scenarios::kSharedLanFlags),
              "unknown flag --qeueu");
    EXPECT_EQ(rejection({"--bogus", "3"}, scenarios::kSharedLanSweepFlags),
              "unknown flag --bogus");
    EXPECT_EQ(rejection({"--jiter", "0.1"}, scenarios::kNearnetFlags),
              "unknown flag --jiter");
    EXPECT_EQ(rejection({"--bg-ppps", "200"}, scenarios::kAudiocastFlags),
              "unknown flag --bg-ppps");
    // The grid axes belong to the sweep, and one testbed's knobs are not
    // another's.
    EXPECT_EQ(rejection({"--buffers", "4..16"}, scenarios::kSharedLanFlags),
              "unknown flag --buffers");
    EXPECT_EQ(rejection({"--pings", "10"}, scenarios::kAudiocastFlags),
              "unknown flag --pings");
    EXPECT_EQ(rejection({"--trials", "2"}, scenarios::kNearnetFlags),
              "unknown flag --trials");
}

TEST(CliFlags, SharedLanRejectsABackgroundSourceThatCannotAdvance) {
    // `scenario run shared_lan --bg-period 0` and the sweep with it hung;
    // `--max-time -5` ran nothing and exited 0. Each now throws, which
    // the CLI reports with exit 2.
    scenarios::register_builtin_scenarios();
    const auto& registry = scenarios::ScenarioRegistry::instance();
    EXPECT_THROW(registry.run("shared_lan", {{"bg-period", "0"}}),
                 std::invalid_argument);
    EXPECT_THROW(registry.run("shared_lan", {{"bg-period", "0"}, {"trials", "2"}}),
                 std::invalid_argument);
    EXPECT_THROW(registry.run("shared_lan", {{"max-time", "-5"}}),
                 std::invalid_argument);
    EXPECT_THROW(scenarios::run_shared_lan_sweep(
                     {{"bg-period", "0"}, {"loads", "0.8,1.2"}, {"max-time", "10"}}),
                 std::invalid_argument);
    EXPECT_THROW(scenarios::run_shared_lan_sweep({{"max-time", "-5"}}),
                 std::invalid_argument);
}

TEST(CliFlags, SharedLanRejectsJunkJobsAndTrialsBeforeAnyCellRuns) {
    // The shared-LAN runners read --jobs and --trials with atoi: `--jobs
    // -1` started one thread per cell, and `--jobs 2x --trials 2x` ran 2
    // cells on 2 workers. Both now use the CLI's strict readers and
    // throw before a cell runs, so nothing reaches stdout.
    scenarios::register_builtin_scenarios();
    const auto& registry = scenarios::ScenarioRegistry::instance();
    const std::vector<scenarios::ScenarioFlags> junk{
        {{"jobs", "-1"}, {"trials", "2"}, {"max-time", "1"}},
        {{"jobs", "2x"}, {"trials", "2"}, {"max-time", "1"}},
        {{"trials", "2x"}, {"max-time", "1"}},
        {{"trials", "0"}, {"max-time", "1"}},
    };
    for (const scenarios::ScenarioFlags& flags : junk) {
        const std::string what =
            flags.contains("jobs") ? "--jobs " + flags.at("jobs")
                                   : "--trials " + flags.at("trials");
        testing::internal::CaptureStdout();
        EXPECT_THROW(scenarios::run_shared_lan_sweep(flags),
                     std::invalid_argument)
            << what;
        EXPECT_THROW(registry.run("shared_lan", flags), std::invalid_argument)
            << what;
        EXPECT_EQ(testing::internal::GetCapturedStdout(), "") << what;
    }
    // A single-trial run reads --jobs too: a junk worker count is an
    // error even where only one cell runs.
    EXPECT_THROW(registry.run("shared_lan", {{"jobs", "-1"}, {"max-time", "1"}}),
                 std::invalid_argument);
}

TEST(CliFlags, SweepGridRejectsAStepThatCannotAdvance) {
    // `routesync sweep --step 0` (or --step abc, which atof reads as 0)
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
    EXPECT_EQ(flag_count(parse({}), "sim-trials", 0, 0), 0);
    EXPECT_EQ(flag_count(parse({"--sim-trials", "0"}), "sim-trials", 0, 0), 0);
    EXPECT_EQ(flag_count(parse({"--sim-trials", "2"}), "sim-trials", 0, 0), 2);
    EXPECT_THROW(flag_count(parse({"--sim-trials", "-3"}), "sim-trials", 0, 0),
                 std::invalid_argument);
    EXPECT_THROW(flag_count(parse({"--sim-trials", "2x"}), "sim-trials", 0, 0),
                 std::invalid_argument);
}

TEST(CliFlags, TrialsDefaultsToFallbackWhenAbsent) {
    EXPECT_EQ(flag_trials(parse({}), 1), 1);
    EXPECT_EQ(flag_trials(parse({}), 5), 5);
}

TEST(CliFlags, TrialsParsesPositiveIntegersAndEqualsForm) {
    EXPECT_EQ(flag_trials(parse({"--trials", "4"}), 1), 4);
    EXPECT_EQ(flag_trials(parse({"--trials", "1"}), 8), 1);
    EXPECT_EQ(flag_trials(parse({"--trials=16"}), 1), 16);
}

TEST(CliFlags, TrialsRejectsZeroNegativesAndJunk) {
    // 0 trials is a no-op nobody means — unlike --jobs there is no
    // auto-detect reading, so it is an error, not a fallback.
    EXPECT_THROW(flag_trials(parse({"--trials", "0"}), 1),
                 std::invalid_argument);
    EXPECT_THROW(flag_trials(parse({"--trials", "-3"}), 1),
                 std::invalid_argument);
    EXPECT_THROW(flag_trials(parse({"--trials", "two"}), 1),
                 std::invalid_argument);
    EXPECT_THROW(flag_trials(parse({"--trials", "2x"}), 1),
                 std::invalid_argument);
    EXPECT_THROW(flag_trials(parse({"--trials", ""}), 1),
                 std::invalid_argument);
    // Beyond int: 2^32 + 1 used to wrap to 1.
    EXPECT_THROW(flag_trials(parse({"--trials", "4294967297"}), 1),
                 std::invalid_argument);
}

TEST(CliFlags, TrialsErrorMessageNamesTheFlag) {
    try {
        flag_trials(parse({"--trials", "2x"}), 1);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string{e.what()}.find("--trials"), std::string::npos);
        EXPECT_NE(std::string{e.what()}.find("positive"), std::string::npos);
    }
}

} // namespace
