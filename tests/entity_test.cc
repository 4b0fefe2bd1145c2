#include "src/entity/entity.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace dime
