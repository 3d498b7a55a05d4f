// Tests for the CLI flag parser.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "tools/flags.hpp"

namespace {

using namespace routesync::cli;

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
