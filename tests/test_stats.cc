/**
 * @file
 * Unit tests for summaries, tables and CSV output.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "stats/csv.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

namespace nimblock {
namespace {

TEST(Summary, EmptyIsSafe)
{
    Summary s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(95), 0.0);
}

TEST(Summary, BasicMoments)
{
    Summary s({1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Summary, StddevOfConstantIsZero)
{
    Summary s({5.0, 5.0, 5.0});
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, StddevKnownValue)
{
    Summary s({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
}

TEST(Summary, GeomeanKnownValue)
{
    Summary s({1.0, 10.0, 100.0});
    EXPECT_NEAR(s.geomean(), 10.0, 1e-9);
}

TEST(Summary, GeomeanRejectsNonPositiveViaDeath)
{
    Summary s({1.0, -2.0});
    EXPECT_DEATH(s.geomean(), "positive");
}

TEST(Summary, PercentileInterpolates)
{
    Summary s({10.0, 20.0, 30.0, 40.0});
    EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
    EXPECT_DOUBLE_EQ(s.median(), 25.0);
}

TEST(Summary, PercentileUnsortedInput)
{
    Summary s({40.0, 10.0, 30.0, 20.0});
    EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
}

TEST(Summary, PercentileAfterLateAdd)
{
    Summary s({1.0, 2.0});
    EXPECT_DOUBLE_EQ(s.percentile(100), 2.0);
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
}

TEST(Summary, MergeCombinesSamples)
{
    Summary a({1.0, 2.0});
    Summary b({3.0, 4.0});
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.5);
}

TEST(Table, RendersHeaderAndRows)
{
    Table t("title");
    t.setHeader({"a", "bb"});
    t.addRow({"1", "2"});
    std::string s = t.toString();
    EXPECT_NE(s.find("title"), std::string::npos);
    EXPECT_NE(s.find("| a | bb |"), std::string::npos);
    EXPECT_NE(s.find("| 1 | 2  |"), std::string::npos);
}

TEST(Table, CellFormatting)
{
    EXPECT_EQ(Table::cell(3.14159, 2), "3.14");
    EXPECT_EQ(Table::cell(static_cast<std::int64_t>(42)), "42");
}

TEST(Table, RowWidthMismatchPanicsViaDeath)
{
    Table t;
    t.setHeader({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "cells");
}

TEST(Csv, EscapesSpecialCharacters)
{
    CsvWriter csv;
    csv.setHeader({"x", "y"});
    csv.addRow({"plain", "with,comma"});
    csv.addRow({"with\"quote", "with\nnewline"});
    std::string s = csv.toString();
    EXPECT_NE(s.find("x,y\n"), std::string::npos);
    EXPECT_NE(s.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(s.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Csv, QuotesCarriageReturns)
{
    CsvWriter csv;
    csv.addRow({"with\rreturn", "with\r\ncrlf"});
    std::string s = csv.toString();
    EXPECT_NE(s.find("\"with\rreturn\""), std::string::npos);
    EXPECT_NE(s.find("\"with\r\ncrlf\""), std::string::npos);
}

TEST(Csv, QuotesEmbeddedQuotesAndEdgeWhitespace)
{
    CsvWriter csv;
    csv.addRow({"say \"hi\"", " leading", "trailing ", "\ttabbed\t"});
    csv.addRow({"inner space is fine", "plain"});
    std::string s = csv.toString();
    EXPECT_NE(s.find("\"say \"\"hi\"\"\""), std::string::npos);
    EXPECT_NE(s.find("\" leading\""), std::string::npos);
    EXPECT_NE(s.find("\"trailing \""), std::string::npos);
    EXPECT_NE(s.find("\"\ttabbed\t\""), std::string::npos);
    // Interior whitespace alone must not trigger quoting.
    EXPECT_NE(s.find("inner space is fine,plain\n"), std::string::npos);
}

TEST(Csv, RoundTripsThroughFile)
{
    CsvWriter csv;
    csv.setHeader({"k", "v"});
    csv.addRow({"a", "1"});
    std::string path = testing::TempDir() + "nimblock_test.csv";
    ASSERT_TRUE(csv.writeFile(path));

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[256] = {};
    std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    EXPECT_EQ(std::string(buf, n), "k,v\na,1\n");
}

TEST(Logging, FormatMessage)
{
    EXPECT_EQ(formatMessage("%d-%s", 7, "x"), "7-x");
}

TEST(Logging, FatalThrowsWithMessage)
{
    try {
        fatal("bad thing %d", 3);
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad thing 3");
    }
}

} // namespace
} // namespace nimblock
