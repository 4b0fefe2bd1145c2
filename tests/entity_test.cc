#include "src/entity/entity.h"

#include <gtest/gtest.h>

#include <fstream>

#include "src/common/csv.h"

namespace dime {
namespace {

Group SmallGroup(bool with_truth) {
  Group g;
  g.name = "test";
  g.schema = Schema({"Title", "Authors"});
  Entity e1;
  e1.id = "e1";
  e1.values = {{"A data cleaning system"}, {"Nan Tang", "Xu Chu"}};
  Entity e2;
  e2.id = "e2";
  e2.values = {{"Topic models"}, {"Yunqing Xia"}};
  g.entities = {e1, e2};
  if (with_truth) g.truth = {0, 1};
  return g;
}

TEST(SchemaTest, AttributeIndex) {
  Schema s({"Title", "Authors", "Venue"});
  EXPECT_EQ(s.AttributeIndex("Title"), 0);
  EXPECT_EQ(s.AttributeIndex("Venue"), 2);
  EXPECT_EQ(s.AttributeIndex("Missing"), -1);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.AttributeName(1), "Authors");
}

TEST(GroupTest, TruthHelpers) {
  Group g = SmallGroup(true);
  EXPECT_TRUE(g.has_truth());
  EXPECT_EQ(g.TrueErrorIndices(), (std::vector<int>{1}));
  Group no_truth = SmallGroup(false);
  EXPECT_FALSE(no_truth.has_truth());
}

TEST(GroupTsvTest, RoundTripWithTruth) {
  Group g = SmallGroup(true);
  std::string tsv = GroupToTsv(g);
  Group parsed;
  ASSERT_TRUE(ParseGroupTsv(tsv, "test", &parsed).ok());
  EXPECT_EQ(parsed.name, "test");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.schema.attribute_names(), g.schema.attribute_names());
  EXPECT_EQ(parsed.entities[0].id, "e1");
  EXPECT_EQ(parsed.entities[0].value(1),
            (AttributeValue{"Nan Tang", "Xu Chu"}));
  EXPECT_EQ(parsed.truth, g.truth);
}

TEST(GroupTsvTest, RoundTripWithoutTruth) {
  Group g = SmallGroup(false);
  Group parsed;
  ASSERT_TRUE(ParseGroupTsv(GroupToTsv(g), "x", &parsed).ok());
  EXPECT_FALSE(parsed.has_truth());
  EXPECT_EQ(parsed.entities[1].value(0), (AttributeValue{"Topic models"}));
}

TEST(GroupTsvTest, SanitizesStructuralCharacters) {
  Group g;
  g.schema = Schema({"Title"});
  Entity e;
  e.id = "id\twith\ttabs";
  e.values = {{"multi\nline", "pipe|inside"}};
  g.entities.push_back(std::move(e));
  Group parsed;
  ASSERT_TRUE(ParseGroupTsv(GroupToTsv(g), "x", &parsed).ok());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.entities[0].id, "id with tabs");
  EXPECT_EQ(parsed.entities[0].value(0),
            (AttributeValue{"multi line", "pipe/inside"}));
}

TEST(GroupTsvTest, RejectsMalformed) {
  Group parsed;
  EXPECT_EQ(ParseGroupTsv("", "x", &parsed).code(), StatusCode::kParseError);
  EXPECT_EQ(
      ParseGroupTsv("WrongHeader\tTitle\nrow\tvalue\n", "x", &parsed).code(),
      StatusCode::kParseError);
  // Row width mismatch.
  EXPECT_EQ(ParseGroupTsv("_id\tTitle\ne1\ta\textras\n", "x", &parsed).code(),
            StatusCode::kSchemaMismatch);
}

TEST(GroupTsvTest, FileRoundTrip) {
  Group g = SmallGroup(true);
  std::string path = testing::TempDir() + "/dime_group_test.tsv";
  ASSERT_TRUE(SaveGroup(g, path).ok());
  Group loaded;
  ASSERT_TRUE(LoadGroup(path, "loaded", &loaded).ok());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.truth, g.truth);
  EXPECT_EQ(LoadGroup(path + ".missing", "x", &loaded).code(),
            StatusCode::kNotFound);
}

TEST(GroupTsvTest, EmptyInputAndBadHeaderNameTheProblem) {
  Group parsed;
  const Status empty = ParseGroupTsv("\n\r\n", "x", &parsed);
  EXPECT_EQ(empty.code(), StatusCode::kParseError);
  EXPECT_EQ(empty.message(),
            "empty input: expected a header row starting with _id");
  const Status header = ParseGroupTsv("\"id\"\tTitle\n", "x", &parsed);
  EXPECT_EQ(header.code(), StatusCode::kParseError);
  EXPECT_EQ(header.message(), "header must start with _id, got \"id\"");
}

TEST(GroupTsvTest, ErrorClearsTheOutputGroup) {
  Group parsed = SmallGroup(true);
  const Status s = ParseGroupTsv("_id\tA\ne1\tx\ne2\n", "x", &parsed);
  EXPECT_EQ(s.code(), StatusCode::kSchemaMismatch);
  EXPECT_EQ(s.message(), "row 3 has 1 cells but the header has 2");
  EXPECT_TRUE(parsed.name.empty());
  EXPECT_EQ(parsed.schema.size(), 0u);
  EXPECT_EQ(parsed.size(), 0u);
  EXPECT_TRUE(parsed.truth.empty());
}

TEST(GroupTsvTest, TruthIsExactlyTheCellOne) {
  Group parsed;
  ASSERT_TRUE(ParseGroupTsv("_id\tA\t_error\na\tx\t1\nb\tx\t 1\nc\tx\t0\n"
                            "d\tx\ttrue\ne\tx\t\"1\"\n",
                            "x", &parsed)
                  .ok());
  EXPECT_EQ(parsed.schema.attribute_names(), (std::vector<std::string>{"A"}));
  EXPECT_EQ(parsed.truth, (std::vector<uint8_t>{1, 0, 0, 0, 1}));
}

TEST(GroupTsvTest, AttributeCellsSplitTrimAndDropEmpties) {
  EXPECT_EQ(ParseAttributeCell(" a | b ||"), (AttributeValue{"a", "b"}));
  EXPECT_EQ(ParseAttributeCell("Nan Tang|Guoliang Li"),
            (AttributeValue{"Nan Tang", "Guoliang Li"}));
  EXPECT_TRUE(ParseAttributeCell("").empty());
  EXPECT_TRUE(ParseAttributeCell(" | \t|").empty());
  Group parsed;
  ASSERT_TRUE(ParseGroupTsv("_id\tA\n e1 \t a | b \n", "x", &parsed).ok());
  EXPECT_EQ(parsed.entities[0].id, " e1 ");  // ids are taken verbatim
  EXPECT_EQ(parsed.entities[0].value(0), (AttributeValue{"a", "b"}));
}

// TsvTest: the cell and row grammar of the group codec and the text-file
// IO under it (csv.h). The names are those of the row-layer tests these
// replace; "ReadTsv"/"WriteTsv" in a name now means ReadTextFile/LoadGroup
// and WriteTextFile/SaveGroup.

/// Parses `tsv`, which must succeed, and returns the group.
Group MustParse(const std::string& tsv) {
  Group g;
  const Status s = ParseGroupTsv(tsv, "t", &g);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return g;
}

TEST(TsvTest, ParseBasic) {
  Group g = MustParse("_id\tb\tc\n1\t2\t3\n");
  EXPECT_EQ(g.schema.attribute_names(), (std::vector<std::string>{"b", "c"}));
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.entities[0].id, "1");
  EXPECT_EQ(g.entities[0].values, (std::vector<AttributeValue>{{"2"}, {"3"}}));
  EXPECT_FALSE(g.has_truth());
}

TEST(TsvTest, ParseSkipsEmptyLinesAndCr) {
  Group g = MustParse("\n_id\tb\r\n\n\nc\td\r\n\r\n\ne\tf\n\r");
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g.entities[0].id, "c");
  EXPECT_EQ(g.entities[1].id, "e");
  // Blank rows are not counted in the row number of an error.
  Group bad;
  const Status s = ParseGroupTsv("_id\tb\n\n\nc\td\textra\n", "t", &bad);
  EXPECT_EQ(s.code(), StatusCode::kSchemaMismatch);
  EXPECT_EQ(s.message(), "row 2 has 3 cells but the header has 2");
}

TEST(TsvTest, FormatRoundTrip) {
  Group g;
  g.schema = Schema({"x", "y"});
  Entity e;
  e.id = "1";
  e.values = {{"v"}, {}};  // an empty value list writes an empty cell
  g.entities.push_back(e);
  const std::string tsv = GroupToTsv(g);
  EXPECT_EQ(tsv, "_id\tx\ty\n1\tv\t\n");
  Group parsed = MustParse(tsv);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.entities[0].values, e.values);
}

TEST(TsvTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/dime_tsv_test.tsv";
  const std::string text = "_id\tTitle\tAuthors\ne1\tKATARA\tChu|Tang\n";
  ASSERT_TRUE(WriteTextFile(path, text).ok());
  StatusOr<std::string> readback = ReadTextFile(path);
  ASSERT_TRUE(readback.ok()) << readback.status().ToString();
  EXPECT_EQ(*readback, text);
  Group g;
  ASSERT_TRUE(LoadGroup(path, "g", &g).ok());
  EXPECT_EQ(g.entities[0].value(1), (AttributeValue{"Chu", "Tang"}));
}

TEST(TsvTest, ReadMissingFileFails) {
  StatusOr<std::string> text = ReadTextFile("/nonexistent/path/file.tsv");
  EXPECT_EQ(text.status().code(), StatusCode::kNotFound);
  EXPECT_NE(text.status().message().find("/nonexistent/path/file.tsv"),
            std::string::npos);
}

TEST(TsvTest, ParseCrlfLineEndings) {
  Group g = MustParse("_id\tb\r\nc\td\r\n");
  EXPECT_EQ(g.schema.attribute_names(), (std::vector<std::string>{"b"}));
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.entities[0].value(0), (AttributeValue{"d"}));
}

TEST(TsvTest, ParseTrailingLineWithoutNewline) {
  Group g = MustParse("_id\tb\nc\td");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.entities[0].value(0), (AttributeValue{"d"}));

  g = MustParse("_id\tb\nc\td\r");  // trailing CR, no LF
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.entities[0].value(0), (AttributeValue{"d"}));

  // A CR before anything but LF or the end of input is data.
  g = MustParse("_id\tb\nc\td\re");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.entities[0].value(0), (AttributeValue{"d\re"}));
}

TEST(TsvTest, ReadTsvDistinguishesEmptyFromMissing) {
  // Empty file: reads as "", which as a group is PARSE_ERROR (no header).
  const std::string path = testing::TempDir() + "/dime_tsv_empty.tsv";
  ASSERT_TRUE(WriteTextFile(path, "").ok());
  StatusOr<std::string> empty = ReadTextFile(path);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  Group g;
  EXPECT_EQ(LoadGroup(path, "g", &g).code(), StatusCode::kParseError);

  // Missing file: NOT_FOUND, not an empty success.
  StatusOr<std::string> missing = ReadTextFile("/nonexistent/path/file.tsv");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(LoadGroup("/nonexistent/path/file.tsv", "g", &g).code(),
            StatusCode::kNotFound);
}

TEST(TsvTest, ReadTsvHandlesCrlfFiles) {
  const std::string path = testing::TempDir() + "/dime_tsv_crlf.tsv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "_id\tb\r\nc\td";  // CRLF + trailing line without newline
  }
  Group g;
  ASSERT_TRUE(LoadGroup(path, "g", &g).ok());
  EXPECT_EQ(g.schema.attribute_names(), (std::vector<std::string>{"b"}));
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.entities[0].id, "c");
  EXPECT_EQ(g.entities[0].value(0), (AttributeValue{"d"}));
}

TEST(TsvTest, WriteTsvToUnwritablePathFails) {
  const Status s = WriteTextFile("/nonexistent/dir/file.tsv", "a\n");
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << s.ToString();
  EXPECT_NE(s.message().find("/nonexistent/dir/file.tsv"), std::string::npos);
  EXPECT_EQ(SaveGroup(SmallGroup(true), "/nonexistent/dir/group.tsv").code(),
            StatusCode::kNotFound);
}

TEST(TsvTest, QuotedFieldMayContainDelimiter) {
  Group g = MustParse("_id\tA\tB\n\"a\tb\"\t\"x\ty\"\tc\n");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.entities[0].id, "a\tb");
  EXPECT_EQ(g.entities[0].values,
            (std::vector<AttributeValue>{{"x\ty"}, {"c"}}));
}

TEST(TsvTest, QuotedFieldMayContainNewlines) {
  Group g = MustParse("_id\tA\n\"line1\nline2\"\tnext\nplain\tx\n");
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g.entities[0].id, "line1\nline2");
  EXPECT_EQ(g.entities[0].value(0), (AttributeValue{"next"}));
  EXPECT_EQ(g.entities[1].id, "plain");
}

TEST(TsvTest, DoubledQuoteEscapesQuote) {
  Group g = MustParse("_id\tA\n\"say \"\"hi\"\"\"\tb\n");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.entities[0].id, "say \"hi\"");
  // Text after the closing quote is appended as is.
  g = MustParse("_id\tA\n\"ab\"cd\"e\tb\n");
  EXPECT_EQ(g.entities[0].id, "abcd\"e");
}

TEST(TsvTest, QuoteOnlyStartsQuotingAtCellStart) {
  // A quote mid-cell is literal data, per RFC 4180 practice.
  Group g = MustParse("_id\tA\n5\" disk\tb\"\n");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.entities[0].id, "5\" disk");
  EXPECT_EQ(g.entities[0].value(0), (AttributeValue{"b\""}));
}

TEST(TsvTest, TrailingEmptyColumnSurvives) {
  Group g = MustParse("_id\tA\tB\na\tb\t\nc\t\t\n");
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g.entities[0].values, (std::vector<AttributeValue>{{"b"}, {}}));
  EXPECT_EQ(g.entities[1].values, (std::vector<AttributeValue>{{}, {}}));
  // A trailing tab is a cell: one too many here.
  Group bad;
  EXPECT_EQ(ParseGroupTsv("_id\tA\na\tb\t\n", "t", &bad).code(),
            StatusCode::kSchemaMismatch);
}

TEST(TsvTest, LeadingEmptyColumnSurvives) {
  Group g = MustParse("_id\tA\n\ta\n");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.entities[0].id, "");
  EXPECT_EQ(g.entities[0].value(0), (AttributeValue{"a"}));
}

TEST(TsvTest, FormatQuotesOnlyWhenNeeded) {
  Group g;
  g.schema = Schema({"\"Quoted\" name", "Plain"});
  Entity e;
  e.id = "\"starts quoted\"";
  e.values = {{"has\"quote", "x"}, {"\"lead", "b"}};
  g.entities.push_back(e);
  // Only cells that start with '"' are quoted (doubling their quotes);
  // a quote mid-cell stays as is.
  EXPECT_EQ(GroupToTsv(g),
            "_id\t\"\"\"Quoted\"\" name\"\tPlain\n"
            "\"\"\"starts quoted\"\"\"\thas\"quote|x\t\"\"\"lead|b\"\n");
  Group parsed = MustParse(GroupToTsv(g));
  EXPECT_EQ(parsed.schema.attribute_names(), g.schema.attribute_names());
  EXPECT_EQ(parsed.entities[0].id, e.id);
  EXPECT_EQ(parsed.entities[0].values, e.values);
}

TEST(TsvTest, QuotedRoundTripThroughFile) {
  const std::string path = testing::TempDir() + "/dime_tsv_quoted.tsv";
  Group g;
  g.schema = Schema({"Title", "Notes"});
  Entity e;
  e.id = "\"KATARA\"";
  e.values = {{"\"tab\there\" and\nnewline"}, {"plain", "\"x\""}};
  g.entities.push_back(e);
  g.truth = {1};
  ASSERT_TRUE(SaveGroup(g, path).ok());
  Group loaded;
  ASSERT_TRUE(LoadGroup(path, "g", &loaded).ok());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.entities[0].id, e.id);
  // Tab and newline are sanitized to spaces on write.
  EXPECT_EQ(loaded.entities[0].values,
            (std::vector<AttributeValue>{{"\"tab here\" and newline"},
                                         {"plain", "\"x\""}}));
  EXPECT_EQ(loaded.truth, g.truth);
}

TEST(TsvTest, CrlfInsideQuotedFieldIsLiteralData) {
  Group g = MustParse("_id\tA\r\n\"a\r\nb\"\tc\r\n");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.entities[0].id, "a\r\nb");
  EXPECT_EQ(g.entities[0].value(0), (AttributeValue{"c"}));
}

TEST(TsvTest, UnterminatedQuoteConsumesToEndOfInput) {
  // Degenerate input: never crashes, the open cell runs to the end.
  Group g = MustParse("_id\tA\ne1\t\"never closed\tstill\nsame cell");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.entities[0].value(0),
            (AttributeValue{"never closed\tstill\nsame cell"}));
  Group bad;
  const Status s = ParseGroupTsv("_id\tA\n\"e1\tx\n", "t", &bad);
  EXPECT_EQ(s.code(), StatusCode::kSchemaMismatch);
  EXPECT_EQ(s.message(), "row 2 has 1 cells but the header has 2");
}

TEST(TsvTest, MultiValueRoundTrip) {
  Group g;
  g.schema = Schema({"Authors"});
  Entity e;
  e.id = "e";
  e.values = {{"Nan Tang", "Guoliang Li"}};
  g.entities.push_back(e);
  const std::string tsv = GroupToTsv(g);
  EXPECT_EQ(tsv, "_id\tAuthors\ne\tNan Tang|Guoliang Li\n");
  EXPECT_EQ(MustParse(tsv).entities[0].values, e.values);
}

}  // namespace
}  // namespace dime
