#include "src/repro/experiments.h"

#include <gtest/gtest.h>

#include "src/datagen/amazon_gen.h"
#include "src/datagen/scholar_gen.h"
#include "src/ontology/builtin.h"

namespace dime {
namespace {

TEST(ScholarSetupTest, RulesMatchThePaper) {
  ScholarExperiment setup = MakeScholarExperiment();
  ASSERT_EQ(setup.positive.size(), 2u);
  ASSERT_EQ(setup.negative.size(), 3u);
  EXPECT_EQ(setup.positive[0].ToString(setup.schema),
            "overlap(Authors) >= 2");
  EXPECT_EQ(setup.positive[1].ToString(setup.schema),
            "overlap(Authors) >= 1 ^ ontology(Venue) >= 0.75");
  EXPECT_EQ(setup.negative[0].ToString(setup.schema),
            "overlap(Authors) <= 0");
  EXPECT_EQ(setup.negative[1].ToString(setup.schema),
            "overlap(Authors) <= 1 ^ ontology(Venue) <= 0.25");
  ASSERT_EQ(setup.context.ontologies.size(), 2u);
  EXPECT_EQ(setup.context.ontologies[0].mode, MapMode::kExactName);
  EXPECT_EQ(setup.context.ontologies[1].mode, MapMode::kKeyword);
  EXPECT_FALSE(setup.features.empty());
  EXPECT_FALSE(setup.sifi.conjunctions.empty());
}

TEST(AmazonSetupTest, ThemeTreeFitsCorpus) {
  AmazonGenOptions gen;
  gen.num_correct = 50;
  gen.seed = 2;
  std::vector<Group> corpus{GenerateAmazonGroup(0, gen),
                            GenerateAmazonGroup(10, gen)};
  AmazonSetup setup = MakeAmazonSetup(corpus);
  ASSERT_EQ(setup.positive.size(), 3u);
  ASSERT_EQ(setup.negative.size(), 2u);
  ASSERT_EQ(setup.context.ontologies.size(), 1u);
  ASSERT_NE(setup.context.ontologies[0].tree, nullptr);
  const Ontology& themes = *setup.context.ontologies[0].tree;
  EXPECT_EQ(themes.MaxDepth(), 3);
  // The theme tree separates the two categories' vocabulary.
  int router = themes.MapByKeywords({"wifi", "wireless", "ethernet"});
  int printer = themes.MapByKeywords({"ink", "cartridge", "scanner"});
  ASSERT_NE(router, kNoNode);
  ASSERT_NE(printer, kNoNode);
  EXPECT_LT(themes.Similarity(router, printer), 1.0);
}

TEST(DemoCorpusTest, PagesAreNamedAndTheContextPointsAtTheOwnedTree) {
  Corpus demo = MakeDemoCorpus(3);
  ASSERT_EQ(demo.groups.size(), 3u);
  for (size_t i = 0; i < demo.groups.size(); ++i) {
    EXPECT_EQ(demo.groups[i].name, "page_" + std::to_string(i));
    EXPECT_EQ(demo.groups[i].schema.attribute_names(),
              demo.schema.attribute_names());
  }
  // Both refs share the one built-in venue tree.
  ASSERT_EQ(demo.context.ontologies.size(), 2u);
  for (const OntologyRef& ref : demo.context.ontologies) {
    EXPECT_EQ(ref.tree, VenueOntology());
  }
  EXPECT_EQ(ValidateRules(demo.schema, demo.positive, demo.negative,
                          demo.context),
            "");
  // A preset name outside the two defined is refused, not guessed.
  EXPECT_EQ(MakePresetCorpus("scholar-3000").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SampleExamplePairsTest, LabelsFollowTruth) {
  ScholarGenOptions gen;
  gen.num_correct = 40;
  gen.seed = 3;
  std::vector<Group> groups{GenerateScholarGroup("A", gen)};
  std::vector<ExamplePair> examples = SampleExamplePairs(groups, 20, 20, 5);
  EXPECT_FALSE(examples.empty());
  size_t positives = 0;
  for (const ExamplePair& ex : examples) {
    ASSERT_EQ(ex.group, 0);
    const Group& g = groups[0];
    if (ex.positive) {
      ++positives;
      EXPECT_FALSE(g.truth[ex.e1]);
      EXPECT_FALSE(g.truth[ex.e2]);
      EXPECT_NE(ex.e1, ex.e2);
    } else {
      // Negative examples pair an error with a correct entity.
      EXPECT_TRUE(g.truth[ex.e1] != g.truth[ex.e2]);
    }
  }
  EXPECT_GT(positives, 0u);
  EXPECT_LT(positives, examples.size());
}

TEST(SampleExamplePairsTest, FeatureVectorsMatchLibrary) {
  ScholarExperiment setup = MakeScholarExperiment();
  ScholarGenOptions gen;
  gen.num_correct = 30;
  gen.seed = 4;
  std::vector<Group> groups{GenerateScholarGroup("B", gen)};
  std::vector<ExamplePair> examples = SampleExamplePairs(groups, 10, 10, 6);
  std::vector<LabeledPair> pairs =
      ComputeFeatures(groups, examples, setup.features, setup.context);
  ASSERT_EQ(pairs.size(), examples.size());
  for (const LabeledPair& p : pairs) {
    ASSERT_EQ(p.features.size(), setup.features.size());
    // overlap(Authors) is feature 0 and is a non-negative count.
    EXPECT_GE(p.features[0], 0.0);
    // Normalized features stay in [0, 1].
    for (size_t f = 1; f < p.features.size(); ++f) {
      EXPECT_GE(p.features[f], 0.0);
      EXPECT_LE(p.features[f], 1.0);
    }
  }
}

}  // namespace
}  // namespace dime
