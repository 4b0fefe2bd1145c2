#include "src/baselines/svm.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/metrics.h"
#include "src/datagen/scholar_gen.h"
#include "src/repro/experiments.h"

namespace dime {
namespace {

LabeledPair Pair(std::vector<double> features, bool positive) {
  LabeledPair p;
  p.features = std::move(features);
  p.positive = positive;
  return p;
}

std::vector<LabeledPair> LinearlySeparable(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<LabeledPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    bool positive = rng.Bernoulli(0.5);
    // Positive: f0 + f1 > 1.2 with margin; negative: < 0.8.
    double sum = positive ? 1.3 + rng.UniformDouble() * 0.6
                          : rng.UniformDouble() * 0.7;
    double f0 = sum * rng.UniformDouble();
    pairs.push_back(Pair({f0, sum - f0}, positive));
  }
  return pairs;
}

TEST(LinearSvmTest, LearnsSeparableConcept) {
  auto pairs = LinearlySeparable(200, 5);
  LinearSvm model;
  ASSERT_TRUE(model.Train(pairs, SvmOptions{}).ok());
  int correct = 0;
  for (const auto& p : pairs) {
    correct += model.Predict(p.features) == p.positive ? 1 : 0;
  }
  EXPECT_GT(correct, 190);
}

TEST(LinearSvmTest, DecisionIsMonotoneInPositiveDirection) {
  auto pairs = LinearlySeparable(200, 9);
  LinearSvm model;
  ASSERT_TRUE(model.Train(pairs, SvmOptions{}).ok());
  EXPECT_LT(model.Decision({0.0, 0.0}), model.Decision({1.0, 1.0}));
}

TEST(LinearSvmTest, BalancedWeightsHelpMinorityClass) {
  // 95% negatives: an unbalanced objective can afford to ignore positives.
  Random rng(11);
  std::vector<LabeledPair> pairs;
  for (int i = 0; i < 400; ++i) {
    bool positive = i % 20 == 0;
    double f = positive ? 0.8 + rng.UniformDouble() * 0.2
                        : rng.UniformDouble() * 0.75;
    pairs.push_back(Pair({f}, positive));
  }
  SvmOptions balanced;
  LinearSvm model;
  ASSERT_TRUE(model.Train(pairs, balanced).ok());
  size_t tp = 0, fn = 0;
  for (const auto& p : pairs) {
    if (!p.positive) continue;
    (model.Predict(p.features) ? tp : fn) += 1;
  }
  EXPECT_GT(tp, fn);  // recall over 0.5 on the minority class
}

TEST(LinearSvmTest, DeterministicTraining) {
  auto pairs = LinearlySeparable(100, 13);
  LinearSvm a, b;
  ASSERT_TRUE(a.Train(pairs, SvmOptions{}).ok());
  ASSERT_TRUE(b.Train(pairs, SvmOptions{}).ok());
  EXPECT_EQ(a.weights(), b.weights());
  EXPECT_DOUBLE_EQ(a.bias(), b.bias());
}

TEST(SvmDiscoverTest, FlagsErrorsInScholarGroup) {
  ScholarExperiment setup = MakeScholarExperiment();
  // Train on example pairs from a few groups, discover on a fresh group.
  ScholarGenOptions gen;
  gen.num_correct = 60;
  std::vector<Group> train_groups;
  for (uint64_t s : {1u, 2u, 3u}) {
    gen.seed = s;
    train_groups.push_back(
        GenerateScholarGroup("Owner" + std::to_string(s), gen));
  }
  std::vector<ExamplePair> examples =
      SampleExamplePairs(train_groups, 40, 40, 7);
  std::vector<LabeledPair> features =
      ComputeFeatures(train_groups, examples, setup.features, setup.context);
  LinearSvm model;
  ASSERT_TRUE(model.Train(features, SvmOptions{}).ok());

  gen.seed = 50;
  Group test_group = GenerateScholarGroup("Test Owner", gen);
  std::vector<int> flagged =
      SvmDiscover(test_group, setup.features, model, setup.context);
  Prf prf = EvaluateFlagged(test_group, flagged);
  // SVM is a competent baseline on this data, just not perfect.
  EXPECT_GT(prf.f1, 0.5);
}

TEST(SvmLearnerTest, PluggableIntoCrossValidation) {
  auto pairs = LinearlySeparable(100, 17);
  CrossValResult r = KFoldCrossValidate(pairs, 4, MakeSvmLearner());
  EXPECT_GT(r.mean_f1, 0.9);
}

}  // namespace
}  // namespace dime
