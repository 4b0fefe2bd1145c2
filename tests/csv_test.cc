#include "src/common/csv.h"

#include <gtest/gtest.h>

#include <fstream>

namespace dime {
namespace {

TEST(TsvTest, ParseBasic) {
  std::vector<TsvRow> rows = ParseTsv("a\tb\tc\n1\t2\t3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (TsvRow{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (TsvRow{"1", "2", "3"}));
}

TEST(TsvTest, ParseSkipsEmptyLinesAndCr) {
  std::vector<TsvRow> rows = ParseTsv("a\tb\r\n\n\nc\td\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (TsvRow{"a", "b"}));
  EXPECT_EQ(rows[1], (TsvRow{"c", "d"}));
}

TEST(TsvTest, FormatRoundTrip) {
  std::vector<TsvRow> rows{{"x", "y"}, {"1", ""}};
  EXPECT_EQ(ParseTsv(FormatTsv(rows)), rows);
}

TEST(TsvTest, FileRoundTrip) {
  std::string path = testing::TempDir() + "/dime_tsv_test.tsv";
  std::vector<TsvRow> rows{{"Title", "Authors"}, {"KATARA", "Chu|Tang"}};
  ASSERT_TRUE(WriteTsv(path, rows).ok());
  StatusOr<std::vector<TsvRow>> readback = ReadTsv(path);
  ASSERT_TRUE(readback.ok()) << readback.status().ToString();
  EXPECT_EQ(*readback, rows);
}

TEST(TsvTest, ReadMissingFileFails) {
  StatusOr<std::vector<TsvRow>> rows = ReadTsv("/nonexistent/path/file.tsv");
  EXPECT_EQ(rows.status().code(), StatusCode::kNotFound);
  EXPECT_NE(rows.status().message().find("/nonexistent/path/file.tsv"),
            std::string::npos);
}

TEST(TsvTest, ParseCrlfLineEndings) {
  std::vector<TsvRow> rows = ParseTsv("a\tb\r\nc\td\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (TsvRow{"a", "b"}));
  EXPECT_EQ(rows[1], (TsvRow{"c", "d"}));
}

TEST(TsvTest, ParseTrailingLineWithoutNewline) {
  std::vector<TsvRow> rows = ParseTsv("a\tb\nc\td");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (TsvRow{"c", "d"}));

  rows = ParseTsv("a\tb\nc\td\r");  // trailing CR, no LF
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (TsvRow{"c", "d"}));
}

TEST(TsvTest, ReadTsvDistinguishesEmptyFromMissing) {
  // Empty file: OK with zero rows.
  std::string path = testing::TempDir() + "/dime_tsv_empty.tsv";
  ASSERT_TRUE(WriteTsv(path, {}).ok());
  StatusOr<std::vector<TsvRow>> empty = ReadTsv(path);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  // Missing file: NOT_FOUND, not an empty success.
  StatusOr<std::vector<TsvRow>> missing =
      ReadTsv("/nonexistent/path/file.tsv");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(TsvTest, ReadTsvHandlesCrlfFiles) {
  std::string path = testing::TempDir() + "/dime_tsv_crlf.tsv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "a\tb\r\nc\td";  // CRLF + trailing line without newline
  }
  StatusOr<std::vector<TsvRow>> rows = ReadTsv(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (TsvRow{"a", "b"}));
  EXPECT_EQ((*rows)[1], (TsvRow{"c", "d"}));
}

TEST(TsvTest, WriteTsvToUnwritablePathFails) {
  Status s = WriteTsv("/nonexistent/dir/file.tsv", {{"a"}});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(TsvTest, QuotedFieldMayContainDelimiter) {
  std::vector<TsvRow> rows = ParseTsv("\"a\tb\"\tc\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (TsvRow{"a\tb", "c"}));
}

TEST(TsvTest, QuotedFieldMayContainNewlines) {
  std::vector<TsvRow> rows = ParseTsv("\"line1\nline2\"\tnext\nplain\tx\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (TsvRow{"line1\nline2", "next"}));
  EXPECT_EQ(rows[1], (TsvRow{"plain", "x"}));
}

TEST(TsvTest, DoubledQuoteEscapesQuote) {
  std::vector<TsvRow> rows = ParseTsv("\"say \"\"hi\"\"\"\tb\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (TsvRow{"say \"hi\"", "b"}));
}

TEST(TsvTest, QuoteOnlyStartsQuotingAtCellStart) {
  // A quote mid-cell is literal data, per RFC 4180 practice.
  std::vector<TsvRow> rows = ParseTsv("5\" disk\tb\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (TsvRow{"5\" disk", "b"}));
}

TEST(TsvTest, TrailingEmptyColumnSurvives) {
  std::vector<TsvRow> rows = ParseTsv("a\tb\t\nc\t\t\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (TsvRow{"a", "b", ""}));
  EXPECT_EQ(rows[1], (TsvRow{"c", "", ""}));
}

TEST(TsvTest, LeadingEmptyColumnSurvives) {
  std::vector<TsvRow> rows = ParseTsv("\ta\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (TsvRow{"", "a"}));
}

TEST(TsvTest, FormatQuotesOnlyWhenNeeded) {
  std::vector<TsvRow> rows{{"plain", "has\ttab", "has\nnewline", "has\"quote",
                            "\"starts quoted\""}};
  std::string text = FormatTsv(rows);
  // Plain cells stay unquoted (byte-compat with pre-quoting snapshots).
  EXPECT_EQ(text.substr(0, 6), "plain\t");
  EXPECT_EQ(ParseTsv(text), rows);
}

TEST(TsvTest, QuotedRoundTripThroughFile) {
  std::string path = testing::TempDir() + "/dime_tsv_quoted.tsv";
  std::vector<TsvRow> rows{{"Title", "Notes"},
                           {"KATARA", "tab\there and\nnewline"},
                           {"Next", "plain"}};
  ASSERT_TRUE(WriteTsv(path, rows).ok());
  StatusOr<std::vector<TsvRow>> readback = ReadTsv(path);
  ASSERT_TRUE(readback.ok()) << readback.status().ToString();
  EXPECT_EQ(*readback, rows);
}

TEST(TsvTest, CrlfInsideQuotedFieldIsLiteralData) {
  std::vector<TsvRow> rows = ParseTsv("\"a\r\nb\"\tc\r\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (TsvRow{"a\r\nb", "c"}));
}

TEST(TsvTest, UnterminatedQuoteConsumesToEndOfInput) {
  // Degenerate input: never crashes, yields the open cell as-is.
  std::vector<TsvRow> rows = ParseTsv("\"never closed\tstill same cell");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (TsvRow{"never closed\tstill same cell"}));
}

TEST(TsvTest, MultiValueRoundTrip) {
  std::vector<std::string> values{"Nan Tang", "Guoliang Li"};
  EXPECT_EQ(SplitMultiValue(JoinMultiValue(values)), values);
  EXPECT_EQ(SplitMultiValue(" a | b |"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(SplitMultiValue("").empty());
}

}  // namespace
}  // namespace dime
