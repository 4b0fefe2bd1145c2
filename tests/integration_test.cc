// Cross-module integration tests: the full paper pipeline — generate
// data, learn rules from examples, discover mis-categorized entities with
// the learned rules, and compare against the baselines.

#include <gtest/gtest.h>

#include "src/baselines/cr.h"
#include "src/baselines/svm.h"
#include "src/core/dime_plus.h"
#include "src/core/metrics.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/rulegen/greedy.h"

namespace dime {
namespace {

struct ScholarWorld {
  ScholarSetup setup = MakeScholarSetup();
  std::vector<Group> train_groups;
  std::vector<Group> test_groups;
};

ScholarWorld MakeWorld(size_t train, size_t test, size_t pubs) {
  ScholarWorld world;
  ScholarGenOptions gen;
  gen.num_correct = pubs;
  for (size_t i = 0; i < train; ++i) {
    gen.seed = 1000 + i;
    world.train_groups.push_back(
        GenerateScholarGroup("Trainer " + std::to_string(i), gen));
  }
  for (size_t i = 0; i < test; ++i) {
    gen.seed = 2000 + i;
    world.test_groups.push_back(
        GenerateScholarGroup("Testee " + std::to_string(i), gen));
  }
  return world;
}

TEST(IntegrationTest, LearnedRulesDriveDiscovery) {
  ScholarWorld world = MakeWorld(3, 2, 80);
  std::vector<ExamplePair> examples =
      SampleExamplePairs(world.train_groups, 120, 100, 11);
  std::vector<LabeledPair> pairs =
      ComputeFeatures(world.train_groups, examples, world.setup.features,
                      world.setup.context);

  RuleGenResult pos = GreedyPositiveRules(pairs, world.setup.features.size());
  RuleGenResult neg = GreedyNegativeRules(pairs, world.setup.features.size());
  ASSERT_FALSE(pos.rules.empty());
  ASSERT_FALSE(neg.rules.empty());

  std::vector<PositiveRule> positive;
  for (const LearnedRule& r : pos.rules) {
    positive.push_back(ToPositiveRule(r, world.setup.features));
  }
  std::vector<NegativeRule> negative;
  for (const LearnedRule& r : neg.rules) {
    negative.push_back(ToNegativeRule(r, world.setup.features));
  }

  std::vector<Prf> results;
  for (const Group& group : world.test_groups) {
    DimeResult r =
        RunDimePlus(group, positive, negative, world.setup.context);
    // Best scrollbar position, as the paper reports.
    Prf best;
    best.f1 = -1;
    for (const auto& flagged : r.flagged_by_prefix) {
      Prf prf = EvaluateFlagged(group, flagged);
      if (prf.f1 > best.f1) best = prf;
    }
    results.push_back(best);
  }
  Prf avg = MacroAverage(results);
  EXPECT_GT(avg.f1, 0.5) << "learned rules should transfer across groups";
  EXPECT_GT(avg.precision, 0.6);
}

TEST(IntegrationTest, DimeBeatsBaselinesOnScholar) {
  ScholarWorld world = MakeWorld(3, 3, 80);

  // DIME with the preset (paper) rules, best scrollbar position.
  std::vector<Prf> dime_results;
  for (const Group& group : world.test_groups) {
    DimeResult r = RunDimePlus(group, world.setup.positive,
                               world.setup.negative, world.setup.context);
    Prf best;
    best.f1 = -1;
    for (const auto& flagged : r.flagged_by_prefix) {
      Prf prf = EvaluateFlagged(group, flagged);
      if (prf.f1 > best.f1) best = prf;
    }
    dime_results.push_back(best);
  }
  double dime_f1 = MacroAverage(dime_results).f1;

  // CR with the best of three thresholds.
  std::vector<Prf> cr_results;
  for (const Group& group : world.test_groups) {
    CrResult r = RunCrBestThreshold(group, world.setup.cr,
                                   world.setup.cr.candidate_thresholds);
    cr_results.push_back(EvaluateFlagged(group, r.flagged));
  }
  double cr_f1 = MacroAverage(cr_results).f1;

  // SVM trained on example pairs.
  std::vector<ExamplePair> examples =
      SampleExamplePairs(world.train_groups, 120, 100, 13);
  std::vector<LabeledPair> pairs =
      ComputeFeatures(world.train_groups, examples, world.setup.features,
                      world.setup.context);
  LinearSvm model;
  ASSERT_TRUE(model.Train(pairs, SvmOptions{}).ok());
  std::vector<Prf> svm_results;
  for (const Group& group : world.test_groups) {
    std::vector<int> flagged =
        SvmDiscover(group, world.setup.features, model, world.setup.context);
    svm_results.push_back(EvaluateFlagged(group, flagged));
  }
  double svm_f1 = MacroAverage(svm_results).f1;

  // The paper's Exp-1/Exp-2 shape: DIME wins.
  EXPECT_GT(dime_f1, cr_f1);
  EXPECT_GT(dime_f1, svm_f1);
  EXPECT_GT(dime_f1, 0.85);
}

TEST(IntegrationTest, GroupSurvivesTsvRoundTripThroughEngine) {
  ScholarWorld world = MakeWorld(0, 1, 40);
  const Group& original = world.test_groups[0];
  Group reloaded;
  ASSERT_TRUE(
      ParseGroupTsv(GroupToTsv(original), original.name, &reloaded).ok());
  DimeResult a = RunDimePlus(original, world.setup.positive,
                             world.setup.negative, world.setup.context);
  DimeResult b = RunDimePlus(reloaded, world.setup.positive,
                             world.setup.negative, world.setup.context);
  EXPECT_EQ(a.partitions, b.partitions);
  EXPECT_EQ(a.flagged_by_prefix, b.flagged_by_prefix);
}

}  // namespace
}  // namespace dime
