// Randomized engine differential: on seeded random Scholar, Amazon and
// dbgen groups, the naive oracle (RunDime), RunDimePlus (the DIME+ body
// on one executor) and RunDimePlusSharded on pools of 1, 2 and 4
// threads must produce identical decisions — partitions, pivot, first
// flagging rule and every scrollbar prefix. The dbgen groups have the
// shape of perfbench's batch-scale groups at a size the oracle finishes
// quickly, so the body that workload times is checked against Algorithm
// 1 and not only against itself.
// Group sizes and error rates are drawn per seed so the candidate volumes
// span both sides of 100 000 pairs: small serving pages and large cold
// groups both stream step 1 off the inverted lists, and no group size may
// change a decision.
//
// The same groups check that deadline truncation is monotone: with the
// engine/deadline failpoint firing from a seeded check onwards, as a
// deadline that expires mid-run would, every engine returns either the
// untruncated result or a DEADLINE_EXCEEDED partial whose scrollbar is a
// subset of the full one, prefix by prefix.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/core/dime.h"
#include "src/core/dime_plus.h"
#include "src/datagen/amazon_gen.h"
#include "src/datagen/dbgen_gen.h"
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
  for (unsigned threads : {1u, 2u, 4u}) {
    exec::ShardedOptions options;
    options.num_threads = threads;
    ExpectSameDecisions(
        oracle, exec::RunDimePlusSharded(pg, positive, negative, options),
        "RunDimePlusSharded threads=" + std::to_string(threads));
  }
}

/// True when every element of `sub` is in `super` (neither need be
/// sorted).
bool IsSubset(std::vector<int> sub, std::vector<int> super) {
  std::sort(sub.begin(), sub.end());
  std::sort(super.begin(), super.end());
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

/// `got` is a run of the same engine as `full` with the deadline
/// failpoint armed.
void ExpectMonotoneTruncation(const DimeResult& full, const DimeResult& got,
                              const std::string& engine) {
  SCOPED_TRACE(engine);
  ASSERT_TRUE(full.ok()) << full.status.ToString();
  if (got.ok()) {
    ExpectSameDecisions(full, got, engine);
    return;
  }
  ASSERT_EQ(got.status.code(), StatusCode::kDeadlineExceeded)
      << got.status.ToString();
  // Only step 3 checks the control at "<engine>/negative-partition".
  if (got.status.message().find("negative-partition") == std::string::npos) {
    // Expired in step 1: half-merged partitions would not be valid.
    EXPECT_TRUE(got.partitions.empty()) << got.status.ToString();
    EXPECT_EQ(got.pivot, -1);
  } else {
    // Expired in step 3: step 1's closure is complete.
    EXPECT_EQ(got.partitions, full.partitions);
    EXPECT_EQ(got.pivot, full.pivot);
  }
  const auto& prefixes = got.flagged_by_prefix;
  ASSERT_EQ(prefixes.size(), full.flagged_by_prefix.size());
  for (size_t k = 0; k < prefixes.size(); ++k) {
    EXPECT_TRUE(IsSubset(prefixes[k], full.flagged_by_prefix[k]))
        << "prefix " << k;
    if (k + 1 < prefixes.size()) {
      EXPECT_TRUE(IsSubset(prefixes[k], prefixes[k + 1])) << "prefix " << k;
    }
  }
}

/// One generated group with everything its preparation borrows. Heap
/// allocated and never moved: `pg` points at `group` and `context` at
/// `tree`.
struct RandomCase {
  Group group;
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
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
  c->context = setup.context;
  c->pg = PrepareGroup(c->group, c->positive, c->negative, c->context);
  return c;
}

std::unique_ptr<RandomCase> MakeDbgenCase(uint64_t seed) {
  Random rng(seed * 6271);
  DbgenOptions options;
  options.num_entities = static_cast<size_t>(rng.UniformInt(2000, 4000));
  options.seed = rng.NextUint64();
  auto c = std::make_unique<RandomCase>();
  c->group = GenerateDbgenGroup(options);
  c->positive = DbgenPositiveRules();
  c->negative = DbgenNegativeRules();
  c->pg = PrepareGroup(c->group, c->positive, c->negative, c->context);
  return c;
}

/// Runs every engine configuration on `c` twice: untruncated, then with
/// the deadline failpoint passing `skip` checks and firing on all later
/// ones.
void ExpectTruncationMonotone(const RandomCase& c, int skip) {
  using Run = std::function<DimeResult()>;
  std::vector<std::pair<std::string, Run>> engines = {
      {"RunDime", [&c] { return RunDime(c.pg, c.positive, c.negative); }},
      {"RunDimePlus",
       [&c] { return RunDimePlus(c.pg, c.positive, c.negative); }}};
  for (unsigned threads : {1u, 2u, 4u}) {
    engines.emplace_back(
        "RunDimePlusSharded threads=" + std::to_string(threads), [&c, threads] {
          exec::ShardedOptions options;
          options.num_threads = threads;
          return exec::RunDimePlusSharded(c.pg, c.positive, c.negative,
                                          options);
        });
  }
  for (const auto& [name, run] : engines) {
    const DimeResult full = run();
    DimeResult truncated;
    {
      ScopedFailpoint deadline(failpoints::kEngineDeadline,
                               std::numeric_limits<int>::max(), skip);
      truncated = run();
    }
    ExpectMonotoneTruncation(full, truncated, name);
  }
}

/// The seeded number of checks the deadline failpoint lets pass for
/// group `seed`. DIME+ checks its control a few dozen times per run, the
/// naive engine n times in step 1 and once per partition in step 3. So
/// three draws in four are log-uniform in [0, 2n], which stops DIME+
/// anywhere, and the rest uniform in [n, 2n], which can stop the naive
/// engine in step 3.
int DeadlineSkip(uint64_t seed, const RandomCase& c) {
  Random rng(seed * 104729);
  const int64_t n = static_cast<int64_t>(c.group.size());
  if (rng.Uniform(4) != 0) {
    const double top = static_cast<double>(2 * n + 1);
    return static_cast<int>(std::pow(top, rng.UniformDouble())) - 1;
  }
  return static_cast<int>(rng.UniformInt(n, 2 * n));
}

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kEndSeed = 9;

class ScholarEngineDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScholarEngineDifferentialTest, EnginesAgree) {
  std::unique_ptr<RandomCase> c = MakeScholarCase(GetParam());
  ExpectEnginesAgree(c->pg, c->positive, c->negative);
}

TEST_P(ScholarEngineDifferentialTest, DeadlineTruncationIsMonotone) {
  std::unique_ptr<RandomCase> c = MakeScholarCase(GetParam());
  ExpectTruncationMonotone(*c, DeadlineSkip(GetParam(), *c));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScholarEngineDifferentialTest,
                         ::testing::Range(kFirstSeed, kEndSeed));

class AmazonEngineDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AmazonEngineDifferentialTest, EnginesAgree) {
  std::unique_ptr<RandomCase> c = MakeAmazonCase(GetParam());
  ExpectEnginesAgree(c->pg, c->positive, c->negative);
}

TEST_P(AmazonEngineDifferentialTest, DeadlineTruncationIsMonotone) {
  std::unique_ptr<RandomCase> c = MakeAmazonCase(GetParam());
  ExpectTruncationMonotone(*c, DeadlineSkip(GetParam(), *c));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmazonEngineDifferentialTest,
                         ::testing::Range(kFirstSeed, kEndSeed));

class DbgenEngineDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DbgenEngineDifferentialTest, EnginesAgree) {
  std::unique_ptr<RandomCase> c = MakeDbgenCase(GetParam());
  ExpectEnginesAgree(c->pg, c->positive, c->negative);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbgenEngineDifferentialTest,
                         ::testing::Range(kFirstSeed, kFirstSeed + 4));

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

// The seeded skips must keep stopping the serial engines at every kind of
// point, or the truncation test stops testing what it claims to.
TEST(EngineDifferentialTest, DeadlineSkipsReachEveryStoppingPoint) {
  std::vector<std::string> seen;
  for (auto make : {&MakeScholarCase, &MakeAmazonCase}) {
    for (uint64_t seed = kFirstSeed; seed < kEndSeed; ++seed) {
      std::unique_ptr<RandomCase> c = make(seed);
      ScopedFailpoint deadline(failpoints::kEngineDeadline,
                               std::numeric_limits<int>::max(),
                               DeadlineSkip(seed, *c));
      seen.push_back(RunDime(c->pg, c->positive, c->negative).status.message());
      seen.push_back(
          RunDimePlus(c->pg, c->positive, c->negative).status.message());
    }
  }
  for (const char* where :
       {"dime/positive-row", "dime/negative-partition", "dime_plus/index-rule",
        "dime_plus/verify-candidates", "dime_plus/negative-partition"}) {
    EXPECT_TRUE(std::any_of(seen.begin(), seen.end(),
                            [where](const std::string& message) {
                              return EndsWith(message, where);
                            }))
        << where;
  }
  EXPECT_TRUE(std::any_of(seen.begin(), seen.end(),
                          [](const std::string& m) { return m.empty(); }))
      << "no run finished untruncated";
}

}  // namespace
}  // namespace dime
