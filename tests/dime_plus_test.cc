// The central correctness property of DIME+ (Algorithm 2): it must produce
// exactly the same result as the naive Algorithm 1 on any input — the
// signature filters are complete and verification computes the same
// similarities. Exercised across the scholar, amazon and dbgen generators.

#include "src/core/dime_plus.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/dime_plus_internal.h"
#include "src/datagen/amazon_gen.h"
#include "src/datagen/dbgen_gen.h"
#include "src/datagen/scholar_gen.h"
#include "src/exec/group_by_signature.h"
#include "src/repro/experiments.h"

namespace dime {
namespace {

void ExpectSameResult(const DimeResult& a, const DimeResult& b) {
  EXPECT_EQ(a.partitions, b.partitions);
  EXPECT_EQ(a.pivot, b.pivot);
  EXPECT_EQ(a.flagged_by_prefix, b.flagged_by_prefix);
}

class ScholarEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScholarEquivalenceTest, DimePlusMatchesDime) {
  ScholarSetup setup = MakeScholarSetup();
  ScholarGenOptions options;
  options.num_correct = 80;
  options.seed = GetParam();
  Group group = GenerateScholarGroup("Owner", options);
  PreparedGroup pg =
      PrepareGroup(group, setup.positive, setup.negative, setup.context);
  DimeResult naive = RunDime(pg, setup.positive, setup.negative);
  DimeResult fast = RunDimePlus(pg, setup.positive, setup.negative);
  ExpectSameResult(naive, fast);
  // And the filter must actually prune work.
  EXPECT_LT(fast.stats.positive_pair_checks,
            naive.stats.positive_pair_checks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScholarEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class AmazonEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AmazonEquivalenceTest, DimePlusMatchesDime) {
  AmazonGenOptions options;
  options.num_correct = 60;
  options.error_rate = 0.25;
  options.seed = GetParam();
  std::vector<Group> corpus{
      GenerateAmazonGroup(0, options),
      GenerateAmazonGroup(6, options),
  };
  AmazonSetup setup = MakeAmazonSetup(corpus);
  for (const Group& group : corpus) {
    PreparedGroup pg =
        PrepareGroup(group, setup.positive, setup.negative, setup.context);
    DimeResult naive = RunDime(pg, setup.positive, setup.negative);
    DimeResult fast = RunDimePlus(pg, setup.positive, setup.negative);
    ExpectSameResult(naive, fast);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmazonEquivalenceTest,
                         ::testing::Values(11, 12, 13, 14));

TEST(DbgenEquivalenceTest, DimePlusMatchesDime) {
  DbgenOptions options;
  options.num_entities = 600;
  for (uint64_t seed : {21u, 22u}) {
    options.seed = seed;
    Group group = GenerateDbgenGroup(options);
    std::vector<PositiveRule> pos = DbgenPositiveRules();
    std::vector<NegativeRule> neg = DbgenNegativeRules();
    PreparedGroup pg = PrepareGroup(group, pos, neg, {});
    DimeResult naive = RunDime(pg, pos, neg);
    DimeResult fast = RunDimePlus(pg, pos, neg);
    ExpectSameResult(naive, fast);
  }
}

// Step 1 streams every candidate occurrence off the inverted lists, so
// each one is either verified or skipped by transitivity — at every group
// size. A path that deduplicates or materializes candidates breaks this.
void ExpectEveryCandidateAccountedFor(const DimeResult& r) {
  EXPECT_GT(r.stats.candidate_pairs, 0u);
  EXPECT_EQ(r.stats.positive_pair_checks +
                r.stats.pairs_skipped_by_transitivity,
            r.stats.candidate_pairs);
}

TEST(DimePlusTest, EveryCandidateIsVerifiedOrSkipped) {
  {
    SCOPED_TRACE("scholar page");
    ScholarSetup setup = MakeScholarSetup();
    ScholarGenOptions options;
    options.num_correct = 120;
    options.seed = 7;
    Group group = GenerateScholarGroup("Owner", options);
    PreparedGroup pg =
        PrepareGroup(group, setup.positive, setup.negative, setup.context);
    ExpectEveryCandidateAccountedFor(
        RunDimePlus(pg, setup.positive, setup.negative));
  }
  {
    SCOPED_TRACE("dbgen group");
    DbgenOptions options;
    options.num_entities = 2000;
    options.seed = 9;
    Group group = GenerateDbgenGroup(options);
    std::vector<PositiveRule> pos = DbgenPositiveRules();
    std::vector<NegativeRule> neg = DbgenNegativeRules();
    PreparedGroup pg = PrepareGroup(group, pos, neg, {});
    ExpectEveryCandidateAccountedFor(RunDimePlus(pg, pos, neg));
  }
}

TEST(DimePlusOptionsTest, TransitivitySkipReducesVerifications) {
  ScholarSetup setup = MakeScholarSetup();
  ScholarGenOptions options;
  options.num_correct = 120;
  options.seed = 5;
  Group group = GenerateScholarGroup("Owner", options);
  PreparedGroup pg =
      PrepareGroup(group, setup.positive, setup.negative, setup.context);

  // The skip fires on this page, and every candidate it does not verify
  // is one it skipped: fewer verifications than candidates, none lost.
  DimeResult r = RunDimePlus(pg, setup.positive, setup.negative);
  EXPECT_GT(r.stats.pairs_skipped_by_transitivity, 0u);
  EXPECT_EQ(r.stats.positive_pair_checks +
                r.stats.pairs_skipped_by_transitivity,
            r.stats.candidate_pairs);
}

TEST(PivotSigMapTest, FindReturnsTheSortedReferenceRuns) {
  // Random pivot signatures from a shared pool plus one flood signature
  // on every pivot position; a few positions have no signature at all.
  for (size_t positions : {size_t{30}, size_t{5000}}) {
    Random rng(41 + positions);
    const uint64_t flood = 0x0123456789abcdefULL;
    std::vector<uint64_t> pool;
    for (int k = 0; k < 700; ++k) pool.push_back(rng.NextUint64());
    std::vector<std::vector<uint64_t>> pivot_sigs(positions);
    std::map<uint64_t, std::vector<uint32_t>> reference;
    for (size_t i = 0; i < positions; ++i) {
      if (i % 97 == 3) continue;
      pivot_sigs[i].push_back(flood);
      for (int k = 0; k < 3; ++k) {
        pivot_sigs[i].push_back(pool[rng.Uniform(pool.size())]);
      }
      for (uint64_t s : pivot_sigs[i]) {
        reference[s].push_back(static_cast<uint32_t>(i));
      }
    }
    size_t total = 0;
    for (const std::vector<uint64_t>& sigs : pivot_sigs) total += sigs.size();
    exec::WorkStealingPool executors(exec::PoolOptions{2});
    std::vector<internal::PivotSigMap::Entry> entries;
    exec::GroupBySignature<uint32_t>(
        &executors, total, positions,
        [&pivot_sigs](size_t i, const auto& emit) {
          for (uint64_t s : pivot_sigs[i]) emit(s, static_cast<uint32_t>(i));
        },
        &entries);
    internal::PivotSigMap map;
    map.AdoptSorted(std::move(entries));
    for (const auto& [sig, expected] : reference) {
      std::vector<uint32_t> got;
      for (const internal::PivotSigMap::Entry& e : map.Find(sig)) {
        EXPECT_EQ(e.first, sig);
        got.push_back(e.second);
      }
      EXPECT_EQ(got, expected) << "signature " << sig;
    }
    EXPECT_EQ(map.Find(flood).len, positions - (positions + 93) / 97);
    EXPECT_FALSE(map.Contains(rng.NextUint64()));
    EXPECT_FALSE(map.Contains(0));
  }
}

TEST(DimePlusTest, EmptyGroup) {
  Group g;
  g.schema = Schema({"Authors"});
  std::vector<PositiveRule> pos(1);
  std::vector<NegativeRule> neg(1);
  ASSERT_TRUE(ParsePositiveRule("overlap(Authors) >= 1", g.schema, &pos[0]));
  ASSERT_TRUE(ParseNegativeRule("overlap(Authors) <= 0", g.schema, &neg[0]));
  DimeResult r = RunDimePlus(g, pos, neg, {});
  EXPECT_TRUE(r.partitions.empty());
  EXPECT_EQ(r.pivot, -1);
  ASSERT_EQ(r.flagged_by_prefix.size(), 1u);
}

TEST(DimePlusTest, FilterPrunesPartitionsWithoutVerification) {
  // Two blocks with completely disjoint vocabulary: the negative-rule
  // partition filter should decide without pair verification.
  Group g;
  g.schema = Schema({"Authors"});
  auto add = [&](std::vector<std::string> authors) {
    Entity e;
    e.id = "e" + std::to_string(g.entities.size());
    e.values = {std::move(authors)};
    g.entities.push_back(std::move(e));
  };
  add({"a", "b"});
  add({"a", "b"});
  add({"a", "b"});
  add({"x", "y"});
  std::vector<PositiveRule> pos(1);
  std::vector<NegativeRule> neg(1);
  ASSERT_TRUE(ParsePositiveRule("overlap(Authors) >= 2", g.schema, &pos[0]));
  ASSERT_TRUE(ParseNegativeRule("overlap(Authors) <= 0", g.schema, &neg[0]));
  DimeResult r = RunDimePlus(g, pos, neg, {});
  EXPECT_EQ(r.flagged(), (std::vector<int>{3}));
  EXPECT_EQ(r.stats.partitions_pruned_by_filter, 1u);
  EXPECT_EQ(r.stats.negative_pair_checks, 0u);
}

}  // namespace
}  // namespace dime
