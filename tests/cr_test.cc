#include "src/baselines/cr.h"

#include <gtest/gtest.h>

#include "src/core/metrics.h"
#include "src/datagen/scholar_gen.h"
#include "src/repro/experiments.h"

namespace dime {
namespace {

Group ReferenceGroup() {
  // Two clear relational blocks plus one loner.
  Group g;
  g.schema = Schema({"Title", "Refs"});
  auto add = [&](const std::string& title, std::vector<std::string> refs) {
    Entity e;
    e.id = "e" + std::to_string(g.entities.size());
    e.values = {{title}, std::move(refs)};
    g.entities.push_back(std::move(e));
  };
  add("data cleaning survey", {"a", "b", "c"});
  add("data cleaning methods", {"a", "b", "d"});
  add("cleaning data at scale", {"b", "c", "d"});
  add("protein folding", {"x", "y", "z"});
  add("protein structure", {"x", "y", "w"});
  add("unrelated entry", {"qq"});
  return g;
}

CrConfig ReferenceConfig(double threshold) {
  CrConfig config;
  config.attribute_attrs = {0};
  config.reference_attrs = {1};
  config.alpha = 0.5;
  config.threshold = threshold;
  return config;
}

TEST(CrTest, MergesRelationalBlocks) {
  CrResult r = RunCr(ReferenceGroup(), ReferenceConfig(0.3));
  // Blocks {0,1,2} and {3,4} merge; entity 5 stays alone.
  ASSERT_EQ(r.clusters.size(), 3u);
  EXPECT_EQ(r.clusters[0], (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(r.clusters[1], (std::vector<int>{3, 4}));
  EXPECT_EQ(r.clusters[2], (std::vector<int>{5}));
  // Flagged = outside the largest cluster.
  EXPECT_EQ(r.flagged, (std::vector<int>{3, 4, 5}));
  EXPECT_GT(r.merges, 0u);
}

TEST(CrTest, HigherThresholdMeansMoreClusters) {
  Group g = ReferenceGroup();
  size_t last = 0;
  for (double t : {0.1, 0.4, 0.95}) {
    CrResult r = RunCr(g, ReferenceConfig(t));
    EXPECT_GE(r.clusters.size(), last);
    last = r.clusters.size();
  }
}

TEST(CrTest, EmptyGroup) {
  Group g;
  g.schema = Schema({"Title", "Refs"});
  CrResult r = RunCr(g, ReferenceConfig(0.5));
  EXPECT_TRUE(r.clusters.empty());
  EXPECT_TRUE(r.flagged.empty());
}

TEST(CrTest, SingletonGroup) {
  Group g = ReferenceGroup();
  g.entities.resize(1);
  CrResult r = RunCr(g, ReferenceConfig(0.5));
  ASSERT_EQ(r.clusters.size(), 1u);
  EXPECT_TRUE(r.flagged.empty());
}

TEST(CrTest, BestThresholdPicksHighestF1) {
  ScholarExperiment setup = MakeScholarExperiment();
  ScholarGenOptions gen;
  gen.num_correct = 60;
  gen.seed = 4;
  Group group = GenerateScholarGroup("Owner", gen);
  CrResult best =
      RunCrBestThreshold(group, setup.cr, setup.cr.candidate_thresholds);
  double best_f1 = EvaluateFlagged(group, best.flagged).f1;
  for (double t : setup.cr.candidate_thresholds) {
    CrConfig config = setup.cr;
    config.threshold = t;
    CrResult r = RunCr(group, config);
    EXPECT_LE(EvaluateFlagged(group, r.flagged).f1, best_f1 + 1e-12);
  }
}

TEST(CrTest, FlagsSomethingOnScholarData) {
  ScholarExperiment setup = MakeScholarExperiment();
  ScholarGenOptions gen;
  gen.num_correct = 80;
  gen.seed = 8;
  Group group = GenerateScholarGroup("Owner", gen);
  CrResult r = RunCrBestThreshold(group, setup.cr, setup.cr.candidate_thresholds);
  Prf prf = EvaluateFlagged(group, r.flagged);
  // CR finds a meaningful share of errors but is worse than DIME (the
  // comparison itself is exercised by the integration test / benches).
  EXPECT_GT(prf.recall, 0.3);
}

}  // namespace
}  // namespace dime
