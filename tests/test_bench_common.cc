/**
 * @file
 * Tests for the bench harness' shared CLI/environment layer.
 */

#include <gtest/gtest.h>

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
    EXPECT_THROW(parse({"--sequences"}), FatalError);
    EXPECT_THROW(parse({"--sequences", "0"}), FatalError);
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
