/**
 * @file
 * Tests for the bench harness' shared layer: the flag table, the JSON
 * emitter with its dated history, and the experiment environment.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include <unistd.h>

#include "common.hh"
#include "sim/logging.hh"

namespace nimblock {
namespace bench {
namespace {

BenchOptions
parse(std::vector<std::string> args)
{
    std::vector<char *> argv;
    static std::string prog = "bench";
    argv.push_back(prog.data());
    for (auto &a : args)
        argv.push_back(a.data());
    return BenchOptions::parse(static_cast<int>(argv.size()), argv.data());
}

/** Run @p table over argv = "bench" + @p args. */
void
parseArgs(const Flags &table, std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    parseFlags(static_cast<int>(argv.size()), argv.data(), table);
}

TEST(BenchOptions, Defaults)
{
    BenchOptions opts = parse({});
    EXPECT_EQ(opts.sequences, 10);
    EXPECT_EQ(opts.events, 20);
    EXPECT_EQ(opts.seed, 2023u);
    EXPECT_TRUE(opts.csvPath.empty());
}

TEST(BenchOptions, ParsesAllFlags)
{
    BenchOptions opts = parse({"--sequences", "3", "--events", "7",
                               "--seed", "99", "--csv", "/tmp/x.csv"});
    EXPECT_EQ(opts.sequences, 3);
    EXPECT_EQ(opts.events, 7);
    EXPECT_EQ(opts.seed, 99u);
    EXPECT_EQ(opts.csvPath, "/tmp/x.csv");
}

TEST(BenchOptions, QuickPreset)
{
    BenchOptions opts = parse({"--quick"});
    EXPECT_EQ(opts.sequences, 3);
    EXPECT_EQ(opts.events, 10);
}

TEST(BenchOptions, RejectsBadInput)
{
    EXPECT_EXIT(parse({"--bogus"}), ::testing::ExitedWithCode(2),
                "unknown flag '--bogus'");
    EXPECT_EXIT(parse({"--sequences"}), ::testing::ExitedWithCode(2),
                "flag --sequences needs a value");
    EXPECT_EXIT(parse({"--sequences", "0"}), ::testing::ExitedWithCode(2),
                "flag --sequences must be at least 1");
}

TEST(BenchOptions, MalformedValuesExit2)
{
    EXPECT_EXIT(parse({"--events"}), ::testing::ExitedWithCode(2),
                "needs a value");
    EXPECT_EXIT(parse({"--events", "abc"}), ::testing::ExitedWithCode(2),
                "'abc'");
    EXPECT_EXIT(parse({"--events", "5x"}), ::testing::ExitedWithCode(2),
                "'5x'");
    EXPECT_EXIT(parse({"--events", "99999999999"}),
                ::testing::ExitedWithCode(2), "integer");
    EXPECT_EXIT(parse({"--seed", "-1"}), ::testing::ExitedWithCode(2),
                "non-negative");
    EXPECT_EXIT(parse({"--jobs", "0"}), ::testing::ExitedWithCode(2),
                "at least 1");
    EXPECT_EXIT(parse({"--sched", "nosuch"}), ::testing::ExitedWithCode(2),
                "unknown scheduler 'nosuch'; valid: baseline, ");
}

TEST(BenchOptions, HelpExitsZeroAndListsEveryFlag)
{
    // Help goes to stdout; point it at stderr so the death test sees it.
    EXPECT_EXIT(
        {
            ::dup2(STDERR_FILENO, STDOUT_FILENO);
            parse({"--help"});
        },
        ::testing::ExitedWithCode(0),
        "--sequences N.*--events N.*--seed N.*--jobs N.*--quick.*"
        "--csv PATH.*--trace PATH.*--dispatch NAME.*--sched NAME.*"
        "--hdr.*--help");
}

TEST(BenchFlags, TypedTargetsAndPresetsApplyInOrder)
{
    int n = 1;
    std::uint64_t u = 0;
    double x = 0.5;
    bool on = false;
    std::string pick = "a";
    Flags table{
        {"--n", &n, "an int", -10},
        {"--u", &u, "a uint64"},
        {"--x", &x, "a double", 0.25},
        {"--on", &on, "a switch"},
        {"--pick", Choice{&pick, "letter", {"a", "b"}}, "a choice"},
        {"--preset", [&n] { n = 42; }, "a preset"},
    };
    parseArgs(table, {"--preset", "--n", "-7", "--u", "18446744073709551615",
                      "--x", "2.5", "--on", "--pick", "b"});
    EXPECT_EQ(n, -7);
    EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
    EXPECT_DOUBLE_EQ(x, 2.5);
    EXPECT_TRUE(on);
    EXPECT_EQ(pick, "b");

    std::string help = flagHelp("/some/dir/prog", table);
    EXPECT_NE(help.find("usage: prog [flags]"), std::string::npos);
    EXPECT_NE(help.find("--x X"), std::string::npos);
    EXPECT_NE(help.find("default 2.5, min 0.25"), std::string::npos);
    EXPECT_NE(help.find("one of: a, b"), std::string::npos);
}

TEST(BenchFlags, OutOfRangeAndUnknownNamesExit2)
{
    double x = 1;
    int n = 0;
    std::string pick = "a";
    Flags table{
        {"--x", &x, "a double", 1},
        {"--n", &n, "an int", -10},
        {"--pick", Choice{&pick, "letter", {"a", "b"}}, "a choice"},
    };
    auto run = [&](std::vector<std::string> args) { parseArgs(table, args); };
    EXPECT_EXIT(run({"--x", "0.5"}), ::testing::ExitedWithCode(2),
                "flag --x must be at least 1, got '0.5'");
    EXPECT_EXIT(run({"--n", "-11"}), ::testing::ExitedWithCode(2),
                "flag --n must be at least -10, got '-11'");
    EXPECT_EXIT(run({"--x", "nan"}), ::testing::ExitedWithCode(2),
                "wants a number");
    EXPECT_EXIT(run({"--pick", "c"}), ::testing::ExitedWithCode(2),
                "unknown letter 'c'; valid: a, b");
}

TEST(BenchJson, EscapesStringsAndWritesNonFiniteAsNull)
{
    Json doc = Json::object({
        {"s", "say \"hi\" \\ bye\n"},
        {"nan", Json::num(std::nan(""), "%.4f")},
        {"inf", Json::num(std::numeric_limits<double>::infinity(), "%.1f")},
        {"x", Json::num(0.5, "%.3f")},
        {"n", std::uint64_t{7}},
        {"b", false},
    });
    EXPECT_EQ(doc.dump(),
              "{\"s\": \"say \\\"hi\\\" \\\\ bye\\u000a\", "
              "\"nan\": null, \"inf\": null, \"x\": 0.500, \"n\": 7, "
              "\"b\": false}\n");
}

TEST(BenchJson, ScalarContainersInlineOthersOnePerLine)
{
    Json doc = Json::object({
        {"bench", "t"},
        {"rates",
         Json::array().push(Json::num(1e-4, "%g")).push(Json::num(0.1, "%g"))},
        {"results", Json::array()
                        .push(Json::object({{"a", 1}}))
                        .push(Json::object({{"a", 2}}))},
    });
    EXPECT_EQ(doc.dump(), "{\n"
                          "  \"bench\": \"t\",\n"
                          "  \"rates\": [0.0001, 0.1],\n"
                          "  \"results\": [\n"
                          "    {\"a\": 1},\n"
                          "    {\"a\": 2}\n"
                          "  ]\n"
                          "}\n");
}

/** The lines of @p path's "history" array, verbatim. */
std::vector<std::string>
historyLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> out;
    std::string line;
    bool inside = false;
    while (std::getline(in, line)) {
        if (!inside) {
            inside = line.find("\"history\"") != std::string::npos;
            continue;
        }
        if (line.find(']') != std::string::npos)
            break;
        out.push_back(line);
    }
    return out;
}

/**
 * Copy the committed @p name to a scratch file, append one history
 * entry and check the old entries survive byte for byte.
 */
void
expectHistoryRoundTrip(const std::string &name, std::size_t entries)
{
    std::string src = std::string(NIMBLOCK_SOURCE_DIR) + "/" + name;
    std::string path = testing::TempDir() + "nimblock_history_" + name;
    {
        std::ifstream in(src, std::ios::binary);
        ASSERT_TRUE(in) << src;
        std::ofstream out(path, std::ios::binary);
        out << in.rdbuf();
    }
    std::vector<std::string> before = historyLines(path);
    ASSERT_EQ(before.size(), entries) << name;

    writeWithHistory(path, Json::object({{"bench", "round_trip"}}),
                     Json::object({{"rate", 12}}));
    std::vector<std::string> after = historyLines(path);
    ASSERT_EQ(after.size(), entries + 1) << name;
    // The carried entries are unchanged except that the formerly last
    // one now ends in a comma.
    for (std::size_t i = 0; i < entries; ++i) {
        std::string old = before[i];
        if (old.back() != ',')
            old += ',';
        EXPECT_EQ(after[i], old) << name << " entry " << i;
    }
    EXPECT_EQ(after.back().find("    {\"date\": \""), 0u) << after.back();
    EXPECT_NE(after.back().find("\"rate\": 12}"), std::string::npos);
    std::remove(path.c_str());
}

TEST(BenchJson, HistoryCarriesCommittedEntriesOverByteForByte)
{
    expectHistoryRoundTrip("BENCH_innerloop.json", 3);
    expectHistoryRoundTrip("BENCH_soak.json", 2);
}

TEST(BenchJson, HistoryStartsFreshWithoutAPreviousFile)
{
    std::string path = testing::TempDir() + "nimblock_history_fresh.json";
    std::remove(path.c_str());
    writeWithHistory(path, Json::object({{"bench", "x"}}),
                     Json::object({{"k", 1}}));
    std::vector<std::string> lines = historyLines(path);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"k\": 1}"), std::string::npos);
    std::remove(path.c_str());
}

TEST(BenchEnvTest, SequencesMatchScenarioAndOptions)
{
    BenchOptions opts = parse({"--quick", "--seed", "5"});
    BenchEnv env(opts);
    auto seqs = env.sequences(Scenario::Stress);
    ASSERT_EQ(seqs.size(), 3u);
    for (const auto &seq : seqs)
        EXPECT_EQ(seq.events.size(), 10u);
    // Deterministic per seed.
    auto again = BenchEnv(opts).sequences(Scenario::Stress);
    EXPECT_EQ(seqs[0].events, again[0].events);
    setQuiet(false); // BenchEnv silences logging; restore for other tests.
}

TEST(BenchEnvTest, FixedBatchSequencesTagTheirNames)
{
    BenchOptions opts = parse({"--quick"});
    BenchEnv env(opts);
    auto seqs = env.sequences(Scenario::Ablation, 10);
    EXPECT_NE(seqs[0].name.find("_b10"), std::string::npos);
    for (const auto &seq : seqs) {
        for (const auto &e : seq.events)
            EXPECT_EQ(e.batch, 10);
    }
    setQuiet(false);
}

TEST(DisplayNames, MapSchedulerIds)
{
    EXPECT_EQ(displayName("baseline"), "Baseline");
    EXPECT_EQ(displayName("rr"), "RR");
    EXPECT_EQ(displayName("nimblock_nopreempt_nopipe"),
              "NimblockNoPreemptNoPipe");
    EXPECT_EQ(displayName("something_else"), "something_else");
}

} // namespace
} // namespace bench
} // namespace nimblock
