#include "src/rules/rule_io.h"

#include <gtest/gtest.h>

#include <fstream>

#include "src/datagen/presets.h"

namespace dime {
namespace {

TEST(RuleIoTest, RoundTripScholarPreset) {
  ScholarSetup setup = MakeScholarSetup();
  std::string text =
      RuleSetToText(setup.schema, setup.positive, setup.negative);
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  std::string error;
  ASSERT_TRUE(
      RuleSetFromText(text, setup.schema, &positive, &negative, &error))
      << error;
  ASSERT_EQ(positive.size(), setup.positive.size());
  ASSERT_EQ(negative.size(), setup.negative.size());
  for (size_t i = 0; i < positive.size(); ++i) {
    EXPECT_EQ(positive[i].predicates, setup.positive[i].predicates);
  }
  for (size_t i = 0; i < negative.size(); ++i) {
    EXPECT_EQ(negative[i].predicates, setup.negative[i].predicates);
  }
}

TEST(RuleIoTest, CommentsAndBlankLinesIgnored) {
  Schema schema({"Title", "Authors"});
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  ASSERT_TRUE(RuleSetFromText(
      "# header\n\npositive: overlap(Authors) >= 2\n\n# tail\n", schema,
      &positive, &negative));
  EXPECT_EQ(positive.size(), 1u);
  EXPECT_TRUE(negative.empty());
}

TEST(RuleIoTest, ScrollbarOrderPreserved) {
  Schema schema({"Authors"});
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  ASSERT_TRUE(RuleSetFromText(
      "negative: overlap(Authors) <= 0\nnegative: overlap(Authors) <= 1\n"
      "negative: overlap(Authors) <= 2\n",
      schema, &positive, &negative));
  ASSERT_EQ(negative.size(), 3u);
  EXPECT_DOUBLE_EQ(negative[0].predicates[0].threshold, 0.0);
  EXPECT_DOUBLE_EQ(negative[2].predicates[0].threshold, 2.0);
}

TEST(RuleIoTest, ReportsErrorsWithLineNumbers) {
  Schema schema({"Authors"});
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  std::string error;
  EXPECT_FALSE(RuleSetFromText("positive: overlap(Authors) >= 2\nwat\n",
                               schema, &positive, &negative, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_FALSE(RuleSetFromText("positive: bogus(Authors) >= 2\n", schema,
                               &positive, &negative, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(RuleIoTest, FileRoundTrip) {
  ScholarSetup setup = MakeScholarSetup();
  std::string path = testing::TempDir() + "/dime_rules_test.txt";
  ASSERT_TRUE(
      SaveRuleSet(path, setup.schema, setup.positive, setup.negative).ok());
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  ASSERT_TRUE(LoadRuleSet(path, setup.schema, &positive, &negative).ok());
  EXPECT_EQ(positive.size(), setup.positive.size());

  // An unreadable file is NOT_FOUND, bad text PARSE_ERROR; both name the
  // file, and the parse error names the line.
  const Status missing = LoadRuleSet("/nonexistent/rules.txt", setup.schema,
                                     &positive, &negative);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound) << missing.ToString();
  EXPECT_NE(missing.message().find("/nonexistent/rules.txt"),
            std::string::npos);
  std::string bad_path = testing::TempDir() + "/dime_rules_bad.txt";
  std::ofstream(bad_path) << "positive: overlap(Authors) >= 2\nbogus\n";
  const Status bad = LoadRuleSet(bad_path, setup.schema, &positive, &negative);
  EXPECT_EQ(bad.code(), StatusCode::kParseError) << bad.ToString();
  EXPECT_NE(bad.message().find(bad_path + ": line 2"), std::string::npos)
      << bad.ToString();

  // A file in a missing directory cannot be created: NOT_FOUND naming it.
  const Status unwritable =
      SaveRuleSet("/nonexistent/dir/rules.txt", setup.schema, setup.positive,
                  setup.negative);
  EXPECT_EQ(unwritable.code(), StatusCode::kNotFound) << unwritable.ToString();
  EXPECT_NE(unwritable.message().find("/nonexistent/dir/rules.txt"),
            std::string::npos);
}

}  // namespace
}  // namespace dime
