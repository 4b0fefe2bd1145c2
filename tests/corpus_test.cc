#include "src/core/corpus.h"

#include <gtest/gtest.h>

#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"

namespace dime {
namespace {

std::vector<Group> MakePages(size_t count, size_t pubs) {
  std::vector<Group> groups;
  ScholarGenOptions gen;
  gen.num_correct = pubs;
  for (size_t i = 0; i < count; ++i) {
    gen.seed = 300 + i;
    groups.push_back(
        GenerateScholarGroup("Corpus Owner " + std::to_string(i), gen));
  }
  return groups;
}

TEST(CorpusTest, MatchesPerGroupRuns) {
  ScholarSetup setup = MakeScholarSetup();
  std::vector<Group> groups = MakePages(5, 40);
  CorpusOptions options;
  options.num_threads = 4;
  std::vector<DimeResult> parallel = RunCorpus(
      groups, setup.positive, setup.negative, setup.context, options);
  ASSERT_EQ(parallel.size(), groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    DimeResult expected = RunDimePlus(groups[g], setup.positive,
                                      setup.negative, setup.context);
    EXPECT_EQ(parallel[g].partitions, expected.partitions);
    EXPECT_EQ(parallel[g].flagged_by_prefix, expected.flagged_by_prefix);
  }
}

TEST(CorpusTest, NaiveEngineOption) {
  ScholarSetup setup = MakeScholarSetup();
  std::vector<Group> groups = MakePages(2, 30);
  CorpusOptions options;
  options.use_dime_plus = false;
  std::vector<DimeResult> results = RunCorpus(
      groups, setup.positive, setup.negative, setup.context, options);
  for (size_t g = 0; g < groups.size(); ++g) {
    DimeResult expected =
        RunDime(groups[g], setup.positive, setup.negative, setup.context);
    EXPECT_EQ(results[g].flagged_by_prefix, expected.flagged_by_prefix);
  }
}

TEST(CorpusTest, EmptyCorpusAndMoreThreadsThanGroups) {
  ScholarSetup setup = MakeScholarSetup();
  EXPECT_TRUE(
      RunCorpus({}, setup.positive, setup.negative, setup.context).empty());
  std::vector<Group> one = MakePages(1, 20);
  CorpusOptions options;
  options.num_threads = 16;
  std::vector<DimeResult> results =
      RunCorpus(one, setup.positive, setup.negative, setup.context, options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].partitions.empty());
}

TEST(CorpusTest, ExpiredDeadlineGatesEveryGroupWithOnePrefixPerRule) {
  ScholarSetup setup = MakeScholarSetup();
  std::vector<Group> groups = MakePages(3, 20);
  for (bool plus : {true, false}) {
    CorpusOptions options;
    options.num_threads = 2;
    options.use_dime_plus = plus;
    options.control.deadline = Deadline::Expired();
    std::vector<DimeResult> results = RunCorpus(
        groups, setup.positive, setup.negative, setup.context, options);
    ASSERT_EQ(results.size(), groups.size());
    for (const DimeResult& result : results) {
      EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
      EXPECT_TRUE(result.partitions.empty());
      EXPECT_EQ(result.pivot, -1);
      // The same shape an engine gives when it stops before step 1 ends.
      ASSERT_EQ(result.flagged_by_prefix.size(), setup.negative.size());
      for (const std::vector<int>& flagged : result.flagged_by_prefix) {
        EXPECT_TRUE(flagged.empty());
      }
    }
  }
}

}  // namespace
}  // namespace dime
