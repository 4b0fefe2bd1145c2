#include "src/baselines/kmeans.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/dime_plus.h"
#include "src/core/metrics.h"
#include "src/datagen/scholar_gen.h"
#include "src/repro/experiments.h"

namespace dime {
namespace {

TEST(KMeansTest, SeparatesTwoBlobs) {
  Random rng(3);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back({rng.UniformDouble() * 0.2, rng.UniformDouble() * 0.2});
  }
  for (int i = 0; i < 40; ++i) {
    points.push_back(
        {0.8 + rng.UniformDouble() * 0.2, 0.8 + rng.UniformDouble() * 0.2});
  }
  KMeansResult r = RunKMeans(points, 2, 50, 7);
  ASSERT_EQ(r.assignment.size(), 80u);
  // Blob membership is consistent.
  for (int i = 1; i < 40; ++i) EXPECT_EQ(r.assignment[i], r.assignment[0]);
  for (int i = 41; i < 80; ++i) EXPECT_EQ(r.assignment[i], r.assignment[40]);
  EXPECT_NE(r.assignment[0], r.assignment[40]);
}

TEST(KMeansTest, KOneAssignsEverythingTogether) {
  std::vector<std::vector<double>> points{{0.0}, {0.5}, {1.0}};
  KMeansResult r = RunKMeans(points, 1, 10, 1);
  for (int a : r.assignment) EXPECT_EQ(a, 0);
  EXPECT_NEAR(r.centroids[0][0], 0.5, 1e-9);
}

TEST(KMeansTest, DeterministicForSeed) {
  Random rng(5);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.UniformDouble(), rng.UniformDouble()});
  }
  KMeansResult a = RunKMeans(points, 3, 30, 11);
  KMeansResult b = RunKMeans(points, 3, 30, 11);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(KMeansTest, EmptyInput) {
  KMeansResult r = RunKMeans({}, 2, 10, 1);
  EXPECT_TRUE(r.assignment.empty());
}

/// The paper's point (Related Work / Exp-1): size-based clustering is the
/// wrong tool for mis-categorization — on scholar data 2-means either
/// shears off a chunk of correct entities or misses errors, landing below
/// DIME's best-scrollbar F-measure on average.
TEST(KMeansDiscoverTest, UnderperformsDimeOnScholarData) {
  ScholarExperiment setup = MakeScholarExperiment();
  std::vector<Prf> kmeans_results, dime_results;
  for (uint64_t seed : {21u, 22u, 23u, 24u}) {
    ScholarGenOptions gen;
    gen.num_correct = 80;
    gen.seed = seed;
    Group group = GenerateScholarGroup("Owner", gen);
    kmeans_results.push_back(EvaluateFlagged(
        group, KMeansDiscover(group, setup.features, setup.context, 8, 5)));
    DimeResult r = RunDimePlus(group, setup.positive, setup.negative,
                               setup.context);
    Prf best;
    best.f1 = -1;
    for (const auto& flagged : r.flagged_by_prefix) {
      Prf prf = EvaluateFlagged(group, flagged);
      if (prf.f1 > best.f1) best = prf;
    }
    dime_results.push_back(best);
  }
  EXPECT_LT(MacroAverage(kmeans_results).f1, MacroAverage(dime_results).f1);
}

}  // namespace
}  // namespace dime
