// End-to-end smoke tests: the paper's running example and the synthetic
// generators driving both engines.

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "src/core/dime.h"
#include "src/core/dime_plus.h"
#include "src/core/metrics.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/ontology/builtin.h"

namespace dime {
namespace {

Entity MakePub(const std::string& id, const std::string& title,
               std::vector<std::string> authors, const std::string& venue) {
  Entity e;
  e.id = id;
  e.values = {{title}, std::move(authors), {venue}};
  return e;
}

Group Fig1Group() {
  Group group;
  group.name = "Nan Tang";
  group.schema = Schema({"Title", "Authors", "Venue"});
  group.entities = {
      MakePub("e1", "KATARA a data cleaning system",
              {"Xu Chu", "John Morcos", "Ihab F. Ilyas", "Mourad Ouzzani",
               "Paolo Papotti", "Nan Tang"},
              "SIGMOD 2015"),
      MakePub("e2", "Hierarchical indexing for xpath",
              {"Nan Tang", "Jeffrey Xu Yu", "M. Tamer Ozsu", "Kam-Fai Wong"},
              "ICDE 2008"),
      MakePub("e3", "NADEEF a generalized data cleaning system",
              {"Amr Ebaid", "Ahmed Elmagarmid", "Ihab F. Ilyas", "Nan Tang"},
              "VLDB 2013"),
      MakePub("e4", "Discriminative bi-term topic model",
              {"Yunqing Xia", "NJ Tang", "Amir Hussain", "Erik Cambria"},
              "SIGIR 2005"),
      MakePub("e5", "Win data placement for parallel xml",
              {"Nan Tang", "Guoren Wang", "Jeffrey Xu Yu"}, "ICPADS 2005"),
      MakePub("e6", "Extractive and oxidative desulfurization",
              {"Jianlong Wang", "Rijie Zhao", "Baixin Han", "Nan Tang",
               "Kaixi Li"},
              "RSC Advances 1905"),
  };
  group.truth = {0, 0, 0, 1, 0, 1};
  return group;
}

struct Fig1Setup {
  DimeContext context;
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  Schema schema;
};

Fig1Setup MakeFig1Setup() {
  Fig1Setup s;
  s.schema = Schema({"Title", "Authors", "Venue"});
  auto tree = std::make_shared<Ontology>(BuildFig4Ontology());
  int cs = tree->FindByName("Computer Science");
  int ir = tree->AddNode("Information Retrieval", cs);
  tree->AddNode("SIGIR", ir);
  s.context.ontologies.push_back(
      OntologyRef{std::move(tree), MapMode::kExactName});
  s.positive.resize(2);
  s.negative.resize(2);
  EXPECT_TRUE(
      ParsePositiveRule("overlap(Authors) >= 2", s.schema, &s.positive[0]));
  EXPECT_TRUE(ParsePositiveRule(
      "overlap(Authors) >= 1 ^ ontology(Venue) >= 0.75", s.schema,
      &s.positive[1]));
  EXPECT_TRUE(
      ParseNegativeRule("overlap(Authors) <= 0", s.schema, &s.negative[0]));
  EXPECT_TRUE(ParseNegativeRule(
      "overlap(Authors) <= 1 ^ ontology(Venue) <= 0.25", s.schema,
      &s.negative[1]));
  return s;
}

TEST(SmokeTest, RunningExamplePartitionsAndScrollbar) {
  Group group = Fig1Group();
  Fig1Setup s = MakeFig1Setup();

  DimeResult result = RunDime(group, s.positive, s.negative, s.context);
  ASSERT_EQ(result.partitions.size(), 3u);
  EXPECT_EQ(result.partitions[result.pivot],
            (std::vector<int>{0, 1, 2, 4}));  // e1, e2, e3, e5

  ASSERT_EQ(result.flagged_by_prefix.size(), 2u);
  EXPECT_EQ(result.flagged_by_prefix[0], (std::vector<int>{3}));      // e4
  EXPECT_EQ(result.flagged_by_prefix[1], (std::vector<int>{3, 5}));  // +e6

  Prf prf = EvaluateFlagged(group, result.flagged());
  EXPECT_DOUBLE_EQ(prf.precision, 1.0);
  EXPECT_DOUBLE_EQ(prf.recall, 1.0);
}

TEST(SmokeTest, DimePlusMatchesDimeOnRunningExample) {
  Group group = Fig1Group();
  Fig1Setup s = MakeFig1Setup();
  DimeResult naive = RunDime(group, s.positive, s.negative, s.context);
  DimeResult fast = RunDimePlus(group, s.positive, s.negative, s.context);
  EXPECT_EQ(naive.partitions, fast.partitions);
  EXPECT_EQ(naive.pivot, fast.pivot);
  EXPECT_EQ(naive.flagged_by_prefix, fast.flagged_by_prefix);
}

TEST(SmokeTest, ScholarGeneratorEndToEnd) {
  ScholarSetup setup = MakeScholarSetup();
  ScholarGenOptions options;
  options.num_correct = 120;
  options.seed = 7;
  Group group = GenerateScholarGroup("Nan Tang", options);
  ASSERT_TRUE(group.has_truth());

  DimeResult result =
      RunDime(group, setup.positive, setup.negative, setup.context);
  ASSERT_EQ(result.flagged_by_prefix.size(), 3u);

  // The pivot must be large (most correct pubs) and scrollbar monotone.
  EXPECT_GT(result.PivotEntities().size(), 100u);
  for (size_t k = 1; k < result.flagged_by_prefix.size(); ++k) {
    EXPECT_TRUE(std::includes(result.flagged_by_prefix[k].begin(),
                              result.flagged_by_prefix[k].end(),
                              result.flagged_by_prefix[k - 1].begin(),
                              result.flagged_by_prefix[k - 1].end()));
  }

  Prf last = EvaluateFlagged(group, result.flagged());
  EXPECT_GT(last.recall, 0.9);  // NR3 catches everything in this design
  Prf first = EvaluateFlagged(group, result.flagged_by_prefix[0]);
  EXPECT_GT(first.precision, 0.4);

  DimeResult fast =
      RunDimePlus(group, setup.positive, setup.negative, setup.context);
  EXPECT_EQ(result.partitions, fast.partitions);
  EXPECT_EQ(result.flagged_by_prefix, fast.flagged_by_prefix);
}

}  // namespace
}  // namespace dime
