// Randomized engine differential: on seeded random Scholar and Amazon
// groups, the naive oracle (RunDime), serial DIME+ with and without
// benefit ordering, and the sharded engine at 1, 2 and 4 threads must
// produce identical decisions — partitions, pivot, first flagging rule
// and every scrollbar prefix. Group sizes and error rates are drawn per
// seed so the candidate volumes span both sides of 100 000 pairs: small
// serving pages and large cold groups both stream step 1 off the
// inverted lists, and no group size may change a decision.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/dime.h"
#include "src/core/dime_plus.h"
#include "src/datagen/amazon_gen.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/exec/sharded_dime.h"

namespace dime {
namespace {

// Candidate volume at which DIME+ step 1 used to switch from materialized
// exact-benefit verification to streaming; the seeds below draw groups on
// both sides of it.
constexpr size_t kVolumeSplit = 100000;

void ExpectSameDecisions(const DimeResult& want, const DimeResult& got,
                         const std::string& engine) {
  SCOPED_TRACE(engine);
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  EXPECT_EQ(got.partitions, want.partitions);
  EXPECT_EQ(got.pivot, want.pivot);
  EXPECT_EQ(got.first_flagging_rule, want.first_flagging_rule);
  EXPECT_EQ(got.flagged_by_prefix, want.flagged_by_prefix);  // every prefix
}

/// Runs every engine configuration on `pg` against the oracle.
void ExpectEnginesAgree(const PreparedGroup& pg,
                        const std::vector<PositiveRule>& positive,
                        const std::vector<NegativeRule>& negative) {
  const DimeResult oracle = RunDime(pg, positive, negative);
  EXPECT_TRUE(oracle.ok());

  ExpectSameDecisions(oracle, RunDimePlus(pg, positive, negative),
                      "RunDimePlus");
  DimePlusOptions input_order;
  input_order.benefit_order = false;
  ExpectSameDecisions(oracle,
                      RunDimePlus(pg, positive, negative, input_order),
                      "RunDimePlus benefit_order=false");
  for (unsigned threads : {1u, 2u, 4u}) {
    exec::ShardedOptions options;
    options.num_threads = threads;
    ExpectSameDecisions(
        oracle, exec::RunDimePlusSharded(pg, positive, negative, options),
        "RunDimePlusSharded threads=" + std::to_string(threads));
  }
}

/// One generated group with everything its preparation borrows. Heap
/// allocated and never moved: `pg` points at `group` and `context` at
/// `tree`.
struct RandomCase {
  Group group;
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  std::unique_ptr<Ontology> tree;
  DimeContext context;
  PreparedGroup pg;
};

std::unique_ptr<RandomCase> MakeScholarCase(uint64_t seed) {
  Random rng(seed);
  ScholarGenOptions options;
  options.seed = rng.NextUint64();
  options.num_correct = static_cast<size_t>(rng.UniformInt(40, 600));
  options.coauthor_pool = static_cast<size_t>(rng.UniformInt(20, 90));
  options.chem_namesake_pubs = static_cast<size_t>(rng.UniformInt(0, 25));
  options.cs_namesake_pubs = static_cast<size_t>(rng.UniformInt(0, 20));
  options.garbage_pubs = static_cast<size_t>(rng.UniformInt(0, 40));
  ScholarSetup setup = MakeScholarSetup();
  auto c = std::make_unique<RandomCase>();
  c->group = GenerateScholarGroup("Random Owner", options);
  c->positive = std::move(setup.positive);
  c->negative = std::move(setup.negative);
  c->tree = std::move(setup.venue_tree);
  c->context = setup.context;
  c->pg = PrepareGroup(c->group, c->positive, c->negative, c->context);
  return c;
}

std::unique_ptr<RandomCase> MakeAmazonCase(uint64_t seed) {
  Random rng(seed * 7919);
  AmazonGenOptions options;
  options.seed = rng.NextUint64();
  options.num_correct = static_cast<size_t>(rng.UniformInt(100, 1500));
  options.error_rate = 0.05 + 0.45 * rng.UniformDouble();
  options.list_length = static_cast<size_t>(rng.UniformInt(4, 24));
  options.window = static_cast<size_t>(rng.UniformInt(1, 12));
  auto c = std::make_unique<RandomCase>();
  c->group = GenerateAmazonGroup(static_cast<int>(rng.Uniform(8)), options);
  AmazonSetup setup = MakeAmazonSetup({c->group});
  c->positive = std::move(setup.positive);
  c->negative = std::move(setup.negative);
  c->tree = std::move(setup.theme_tree);
  c->context = setup.context;
  c->pg = PrepareGroup(c->group, c->positive, c->negative, c->context);
  return c;
}

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kEndSeed = 9;

class ScholarEngineDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScholarEngineDifferentialTest, EnginesAgree) {
  std::unique_ptr<RandomCase> c = MakeScholarCase(GetParam());
  ExpectEnginesAgree(c->pg, c->positive, c->negative);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScholarEngineDifferentialTest,
                         ::testing::Range(kFirstSeed, kEndSeed));

class AmazonEngineDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AmazonEngineDifferentialTest, EnginesAgree) {
  std::unique_ptr<RandomCase> c = MakeAmazonCase(GetParam());
  ExpectEnginesAgree(c->pg, c->positive, c->negative);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmazonEngineDifferentialTest,
                         ::testing::Range(kFirstSeed, kEndSeed));

// The seeds above must keep covering both sides of kVolumeSplit for each
// generator, or the differential stops testing what it claims to.
TEST(EngineDifferentialTest, SeedsStraddleTheVolumeSplit) {
  for (auto make : {&MakeScholarCase, &MakeAmazonCase}) {
    size_t below = 0, above = 0;
    for (uint64_t seed = kFirstSeed; seed < kEndSeed; ++seed) {
      std::unique_ptr<RandomCase> c = make(seed);
      const size_t volume =
          RunDimePlus(c->pg, c->positive, c->negative).stats.candidate_pairs;
      ++(volume <= kVolumeSplit ? below : above);
    }
    EXPECT_GE(below, 2u);
    EXPECT_GE(above, 1u);
  }
}

}  // namespace
}  // namespace dime
