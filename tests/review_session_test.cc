#include "src/repro/review_session.h"

#include <gtest/gtest.h>

#include "src/core/dime_plus.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"

namespace dime {
namespace {

DimeResult FakeResult(std::vector<std::vector<int>> prefixes) {
  DimeResult r;
  r.flagged_by_prefix = std::move(prefixes);
  return r;
}

Group GroupWithTruth(std::vector<uint8_t> truth) {
  Group g;
  g.schema = Schema({"A"});
  for (size_t i = 0; i < truth.size(); ++i) {
    Entity e;
    e.id = "e" + std::to_string(i);
    e.values = {{"v"}};
    g.entities.push_back(std::move(e));
  }
  g.truth = std::move(truth);
  return g;
}

TEST(ReviewSessionTest, CountsReviewedAndFound) {
  Group g = GroupWithTruth({0, 1, 0, 1, 1, 0});
  DimeResult r = FakeResult({{1}, {1, 2, 3}});
  ReviewOutcome first = SimulateReview(g, r, 1);
  EXPECT_EQ(first.suggestions_reviewed, 1u);
  EXPECT_EQ(first.errors_found, 1u);
  EXPECT_EQ(first.errors_missed, 2u);
  EXPECT_DOUBLE_EQ(first.coverage, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(first.effort_saved, 1.0 - 1.0 / 6.0);

  ReviewOutcome second = SimulateReview(g, r, 2);
  EXPECT_EQ(second.suggestions_reviewed, 3u);
  EXPECT_EQ(second.errors_found, 2u);
  EXPECT_DOUBLE_EQ(second.coverage, 2.0 / 3.0);
}

TEST(ReviewSessionTest, PrefixClampedToAvailableRules) {
  Group g = GroupWithTruth({0, 1});
  DimeResult r = FakeResult({{1}});
  ReviewOutcome beyond = SimulateReview(g, r, 99);
  EXPECT_EQ(beyond.suggestions_reviewed, 1u);
  EXPECT_EQ(beyond.errors_found, 1u);
}

TEST(ReviewSessionTest, NoNegativeRules) {
  Group g = GroupWithTruth({0, 1});
  ReviewOutcome outcome = SimulateReview(g, FakeResult({}), 1);
  EXPECT_EQ(outcome.suggestions_reviewed, 0u);
  EXPECT_EQ(outcome.errors_missed, 1u);
  EXPECT_DOUBLE_EQ(outcome.effort_saved, 1.0);
}

TEST(ReviewSessionTest, CleanGroupHasFullCoverage) {
  Group g = GroupWithTruth({0, 0});
  ReviewOutcome outcome = SimulateReview(g, FakeResult({{}}), 1);
  EXPECT_DOUBLE_EQ(outcome.coverage, 1.0);
  EXPECT_EQ(outcome.errors_missed, 0u);
}

TEST(ReviewSessionTest, PrefixForCoverageFindsSmallestPrefix) {
  Group g = GroupWithTruth({0, 1, 1, 1});
  DimeResult r = FakeResult({{1}, {1, 2}, {1, 2, 3}});
  EXPECT_EQ(PrefixForCoverage(g, r, 0.3), 1u);
  EXPECT_EQ(PrefixForCoverage(g, r, 0.6), 2u);
  EXPECT_EQ(PrefixForCoverage(g, r, 1.0), 3u);
  // Unreachable coverage falls back to the last prefix.
  DimeResult partial = FakeResult({{1}});
  EXPECT_EQ(PrefixForCoverage(g, partial, 1.0), 1u);
}

TEST(InteractiveReviewTest, PerfectOracleConfirmsExactlyTheErrors) {
  Group g = GroupWithTruth({0, 1, 0, 1, 1});
  DimeResult r = FakeResult({{1, 2}, {1, 2, 3, 4}});
  ConfirmOracle oracle = [&g](int e) { return g.truth[e] != 0; };
  InteractiveOutcome outcome = InteractiveReview(g, r, 2, oracle);
  EXPECT_EQ(outcome.confirmed, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(outcome.rejected, (std::vector<int>{2}));
  EXPECT_EQ(outcome.reviews, 4u);  // each suggestion reviewed once
  EXPECT_DOUBLE_EQ(outcome.quality.precision, 1.0);
  EXPECT_DOUBLE_EQ(outcome.quality.recall, 1.0);
}

TEST(InteractiveReviewTest, EachSuggestionReviewedOnce) {
  Group g = GroupWithTruth({0, 1, 0, 1});
  // Entity 1 appears at every prefix; must be asked only once.
  DimeResult r = FakeResult({{1}, {1}, {1, 3}});
  size_t asked = 0;
  ConfirmOracle counting = [&](int e) {
    ++asked;
    return g.truth[e] != 0;
  };
  InteractiveOutcome outcome = InteractiveReview(g, r, 3, counting);
  EXPECT_EQ(asked, 2u);
  EXPECT_EQ(outcome.reviews, 2u);
  EXPECT_EQ(outcome.confirmed, (std::vector<int>{1, 3}));
}

TEST(InteractiveReviewTest, NoisyOracleDegradesQuality) {
  Group g = GroupWithTruth(std::vector<uint8_t>(60, 0));
  for (int i = 0; i < 20; ++i) g.truth[i] = 1;
  std::vector<int> all;
  for (int i = 0; i < 40; ++i) all.push_back(i);  // 20 tp + 20 fp suggested
  DimeResult r = FakeResult({all});

  InteractiveOutcome clean =
      InteractiveReview(g, r, 1, NoisyTruthOracle(g, 0.0, 1));
  EXPECT_DOUBLE_EQ(clean.quality.precision, 1.0);
  EXPECT_DOUBLE_EQ(clean.quality.recall, 1.0);

  InteractiveOutcome noisy =
      InteractiveReview(g, r, 1, NoisyTruthOracle(g, 0.3, 1));
  EXPECT_LT(noisy.quality.f1, clean.quality.f1);
  // Determinism: same seed, same answers.
  InteractiveOutcome again =
      InteractiveReview(g, r, 1, NoisyTruthOracle(g, 0.3, 1));
  EXPECT_EQ(noisy.confirmed, again.confirmed);
}

TEST(InteractiveReviewTest, NoNegativeRules) {
  Group g = GroupWithTruth({0, 1});
  InteractiveOutcome outcome = InteractiveReview(
      g, FakeResult({}), 1, [](int) { return true; });
  EXPECT_TRUE(outcome.confirmed.empty());
  EXPECT_EQ(outcome.reviews, 0u);
  EXPECT_DOUBLE_EQ(outcome.quality.recall, 0.0);
}

/// The paper's headline effort claim on generated data: reviewing the
/// suggestions is far cheaper than reviewing the page, at high coverage.
TEST(ReviewSessionTest, ScholarPageEffortSavings) {
  ScholarSetup setup = MakeScholarSetup();
  ScholarGenOptions gen;
  gen.num_correct = 170;
  gen.seed = 12;
  Group page = GenerateScholarGroup("Guoliang Li", gen);
  DimeResult r =
      RunDimePlus(page, setup.positive, setup.negative, setup.context);
  size_t prefix = PrefixForCoverage(page, r, 0.9);
  ReviewOutcome outcome = SimulateReview(page, r, prefix);
  EXPECT_GE(outcome.coverage, 0.9);
  EXPECT_GT(outcome.effort_saved, 0.8)
      << "reviewing suggestions must beat reviewing all "
      << page.size() << " entries";
}

}  // namespace
}  // namespace dime
