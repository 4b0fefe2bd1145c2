#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/random.h"
#include "src/core/dime.h"
#include "src/core/dime_plus.h"
#include "src/datagen/dbgen_gen.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/exec/parallel_sort.h"
#include "src/exec/pool.h"
#include "src/exec/sharded_dime.h"

namespace dime {
namespace exec {
namespace {

// ---------------------------------------------------------------------------
// WorkStealingPool / TaskGroup.

TEST(PoolTest, SingleThreadRunsEverythingInline) {
  WorkStealingPool pool(PoolOptions{1});
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Spawn([&ran] { ran.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(group.exception(), nullptr);
  EXPECT_TRUE(group.control_status().ok());
}

TEST(PoolTest, ManyThreadsRunEveryTaskExactlyOnce) {
  WorkStealingPool pool(PoolOptions{8});
  EXPECT_EQ(pool.thread_count(), 8u);
  constexpr int kTasks = 2000;
  std::vector<std::atomic<int>> hits(kTasks);
  TaskGroup group(&pool);
  for (int i = 0; i < kTasks; ++i) {
    group.Spawn([&hits, i] { hits[i].fetch_add(1); });
  }
  group.Wait();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(PoolTest, TasksMaySpawnMoreTasksIntoTheirGroup) {
  WorkStealingPool pool(PoolOptions{4});
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 16; ++i) {
    group.Spawn([&group, &ran] {
      ran.fetch_add(1);
      group.Spawn([&ran] { ran.fetch_add(1); });
    });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 32);
}

TEST(PoolTest, FirstExceptionIsCapturedAndGroupCancelled) {
  WorkStealingPool pool(PoolOptions{2});
  TaskGroup group(&pool);
  group.Spawn([] { throw std::runtime_error("boom"); });
  group.Wait();
  ASSERT_NE(group.exception(), nullptr);
  EXPECT_TRUE(group.cancelled());
  try {
    std::rethrow_exception(group.exception());
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(PoolTest, RecordControlCancelsAndSurfacesStatus) {
  WorkStealingPool pool(PoolOptions{2});
  TaskGroup group(&pool);
  group.Spawn([&group] {
    group.RecordControl(DeadlineExceededError("budget spent"));
  });
  group.Wait();
  EXPECT_EQ(group.control_status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(group.cancelled());
}

TEST(PoolTest, CancelledGroupSkipsUnstartedTaskBodies) {
  // With a 1-thread pool nothing runs until Wait(), so cancelling before
  // the wait must skip every body.
  WorkStealingPool pool(PoolOptions{1});
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 50; ++i) group.Spawn([&ran] { ran.fetch_add(1); });
  group.Cancel();
  group.Wait();
  EXPECT_EQ(ran.load(), 0);
}

TEST(PoolTest, TwoGroupsShareOnePoolIndependently) {
  WorkStealingPool pool(PoolOptions{4});
  std::atomic<int> a{0}, b{0};
  TaskGroup ga(&pool);
  TaskGroup gb(&pool);
  for (int i = 0; i < 64; ++i) {
    ga.Spawn([&a] { a.fetch_add(1); });
    gb.Spawn([&b] { b.fetch_add(1); });
  }
  gb.Spawn([] { throw std::runtime_error("only b fails"); });
  ga.Wait();
  gb.Wait();
  EXPECT_EQ(a.load(), 64);
  EXPECT_EQ(ga.exception(), nullptr);
  EXPECT_NE(gb.exception(), nullptr);
}

TEST(PoolTest, ExecTaskFaultFailpointThrowsInsideTheRunner) {
  ScopedFailpoint fp(failpoints::kExecTaskFault);
  WorkStealingPool pool(PoolOptions{2});
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) group.Spawn([&ran] { ran.fetch_add(1); });
  group.Wait();
  ASSERT_NE(group.exception(), nullptr);
  try {
    std::rethrow_exception(group.exception());
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected exec task fault");
  }
  // The fault consumed one task before its body ran; the cancellation
  // may have skipped others, but never more than the one that threw.
  EXPECT_LT(ran.load(), 8);
}

// ---------------------------------------------------------------------------
// ParallelSort.

TEST(ParallelSortTest, SmallInputTakesSerialPathAndSorts) {
  WorkStealingPool pool(PoolOptions{4});
  Random rng(11);
  std::vector<uint64_t> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.Uniform(1u << 20));
  std::vector<uint64_t> expected = v;
  std::sort(expected.begin(), expected.end());
  ParallelSort(&pool, &v, std::less<uint64_t>());
  EXPECT_EQ(v, expected);
}

TEST(ParallelSortTest, LargeInputMatchesStdSort) {
  WorkStealingPool pool(PoolOptions{4});
  Random rng(12);
  std::vector<std::pair<uint64_t, int>> v;
  const size_t n = (1u << 16) + 377;  // above the serial cutoff, odd size
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    v.emplace_back(rng.Uniform(1u << 10), static_cast<int>(i));
  }
  std::vector<std::pair<uint64_t, int>> expected = v;
  std::sort(expected.begin(), expected.end());
  ParallelSort(&pool, &v, std::less<std::pair<uint64_t, int>>());
  EXPECT_EQ(v, expected);
}

// ---------------------------------------------------------------------------
// Sharded engines vs their serial counterparts.

struct DbgenFixture {
  Group group;
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  PreparedGroup pg;

  explicit DbgenFixture(size_t n, uint64_t seed = 9) {
    DbgenOptions options;
    options.num_entities = n;
    options.seed = seed;
    group = GenerateDbgenGroup(options);
    positive = DbgenPositiveRules();
    negative = DbgenNegativeRules();
    pg = PrepareGroup(group, positive, negative, {});
  }
};

void ExpectSameDecisions(const DimeResult& a, const DimeResult& b) {
  EXPECT_EQ(a.partitions, b.partitions);
  EXPECT_EQ(a.pivot, b.pivot);
  EXPECT_EQ(a.first_flagging_rule, b.first_flagging_rule);
  EXPECT_EQ(a.flagged_by_prefix, b.flagged_by_prefix);
}

TEST(ShardedDimePlusTest, MatchesSerialPlusAcrossThreadCounts) {
  DbgenFixture f(2000);
  DimeResult serial = RunDimePlus(f.pg, f.positive, f.negative);
  ASSERT_TRUE(serial.ok());
  for (unsigned threads : {1u, 2u, 8u}) {
    ShardedOptions options;
    options.num_threads = threads;
    DimeResult sharded =
        RunDimePlusSharded(f.pg, f.positive, f.negative, options);
    ASSERT_TRUE(sharded.ok()) << "threads=" << threads;
    ExpectSameDecisions(serial, sharded);
    // Deterministic DIME+ stats: the candidate volume, and the step-3
    // counters (per-partition scans are self-contained).
    EXPECT_EQ(sharded.stats.candidate_pairs, serial.stats.candidate_pairs);
    EXPECT_EQ(sharded.stats.negative_pair_checks,
              serial.stats.negative_pair_checks)
        << "threads=" << threads;
    EXPECT_EQ(sharded.stats.partitions_pruned_by_filter,
              serial.stats.partitions_pruned_by_filter);
    // Step-1 effort is schedule-dependent, but checks + transitivity
    // skips always account for the full candidate volume.
    EXPECT_EQ(sharded.stats.positive_pair_checks +
                  sharded.stats.pairs_skipped_by_transitivity,
              sharded.stats.candidate_pairs)
        << "threads=" << threads;
  }
}

// The sharded DIME+ path against the Algorithm 1 oracle directly, across
// thread counts (including one that does not divide the work evenly).
class ParallelEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelEquivalenceTest, MatchesSequentialOnScholar) {
  ScholarSetup setup = MakeScholarSetup();
  ScholarGenOptions gen;
  gen.num_correct = 90;
  gen.seed = 31;
  Group group = GenerateScholarGroup("Parallel Owner", gen);
  PreparedGroup pg =
      PrepareGroup(group, setup.positive, setup.negative, setup.context);
  DimeResult sequential = RunDime(pg, setup.positive, setup.negative);
  ShardedOptions options;
  options.num_threads = GetParam();
  DimeResult sharded =
      RunDimePlusSharded(pg, setup.positive, setup.negative, options);
  ASSERT_TRUE(sharded.ok());
  ExpectSameDecisions(sequential, sharded);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelEquivalenceTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(ParallelEquivalenceTest, MatchesSequentialOnDbgen) {
  DbgenFixture f(800, /*seed=*/33);
  ExpectSameDecisions(RunDime(f.pg, f.positive, f.negative),
                      RunDimePlusSharded(f.pg, f.positive, f.negative));
}

TEST(ParallelTest, EmptyGroup) {
  Group g;
  g.schema = Schema({"Authors"});
  std::vector<PositiveRule> pos(1);
  std::vector<NegativeRule> neg(1);
  ASSERT_TRUE(ParsePositiveRule("overlap(Authors) >= 1", g.schema, &pos[0]));
  ASSERT_TRUE(ParseNegativeRule("overlap(Authors) <= 0", g.schema, &neg[0]));
  PreparedGroup pg = PrepareGroup(g, pos, neg, {});
  DimeResult r = RunDimePlusSharded(pg, pos, neg);
  EXPECT_TRUE(r.partitions.empty());
  EXPECT_EQ(r.pivot, -1);
}

TEST(ParallelTest, MoreThreadsThanEntities) {
  Group g;
  g.schema = Schema({"Authors"});
  for (int i = 0; i < 3; ++i) {
    Entity e;
    e.id = "e" + std::to_string(i);
    e.values = {{"a"}};
    g.entities.push_back(std::move(e));
  }
  std::vector<PositiveRule> pos(1);
  ASSERT_TRUE(ParsePositiveRule("overlap(Authors) >= 1", g.schema, &pos[0]));
  PreparedGroup pg = PrepareGroup(g, pos, {}, {});
  ShardedOptions options;
  options.num_threads = 32;
  DimeResult r = RunDimePlusSharded(pg, pos, {}, options);
  ASSERT_EQ(r.partitions.size(), 1u);
  EXPECT_EQ(r.partitions[0], (std::vector<int>{0, 1, 2}));
}

TEST(ShardedDimePlusTest, MatchesSerialOnScholarCorpus) {
  ScholarSetup setup = MakeScholarSetup();
  ScholarGenOptions gen;
  gen.num_correct = 400;
  gen.seed = 321;
  Group group = GenerateScholarGroup("Sharded Scholar", gen);
  PreparedGroup pg =
      PrepareGroup(group, setup.positive, setup.negative, setup.context);
  DimeResult serial = RunDimePlus(pg, setup.positive, setup.negative);
  ShardedOptions options;
  options.num_threads = 4;
  DimeResult sharded =
      RunDimePlusSharded(pg, setup.positive, setup.negative, options);
  ASSERT_TRUE(sharded.ok());
  ExpectSameDecisions(serial, sharded);
}

TEST(ShardedDimeTest, EmptyGroupShortCircuits) {
  Group group;
  group.schema = DbgenSchema();
  std::vector<PositiveRule> pos = DbgenPositiveRules();
  std::vector<NegativeRule> neg = DbgenNegativeRules();
  PreparedGroup pg = PrepareGroup(group, pos, neg, {});
  ShardedOptions options;
  options.num_threads = 4;
  DimeResult plus = RunDimePlusSharded(pg, pos, neg, options);
  EXPECT_TRUE(plus.ok());
  EXPECT_TRUE(plus.partitions.empty());
  ASSERT_EQ(plus.flagged_by_prefix.size(), neg.size());
}

TEST(ShardedDimeTest, BorrowedPoolIsReusedAcrossRuns) {
  DbgenFixture f(400);
  WorkStealingPool pool(PoolOptions{4});
  ShardedOptions options;
  options.pool = &pool;
  DimeResult serial = RunDime(f.pg, f.positive, f.negative);
  for (int run = 0; run < 3; ++run) {
    DimeResult sharded =
        RunDimePlusSharded(f.pg, f.positive, f.negative, options);
    ASSERT_TRUE(sharded.ok());
    ExpectSameDecisions(serial, sharded);
  }
}

TEST(ShardedDimePlusTest, WorkerFaultFallsBackToSerialBitIdentical) {
  DbgenFixture f(400);
  DimeResult serial = RunDimePlus(f.pg, f.positive, f.negative);
  FaultInjection::Arm(failpoints::kWorkerFault, /*count=*/1);
  ShardedOptions options;
  options.num_threads = 2;
  DimeResult sharded =
      RunDimePlusSharded(f.pg, f.positive, f.negative, options);
  FaultInjection::DisarmAll();
  ASSERT_TRUE(sharded.ok());
  ExpectSameDecisions(serial, sharded);
}

TEST(ShardedDimePlusTest, ExpiredDeadlineDiscardsPartitions) {
  DbgenFixture f(400);
  RunControl control;
  control.deadline = Deadline::Expired();
  ShardedOptions options;
  options.num_threads = 4;
  DimeResult sharded =
      RunDimePlusSharded(f.pg, f.positive, f.negative, options, control);
  EXPECT_EQ(sharded.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(sharded.partitions.empty());
  EXPECT_EQ(sharded.pivot, -1);
  ASSERT_EQ(sharded.flagged_by_prefix.size(), f.negative.size());
  for (const std::vector<int>& flagged : sharded.flagged_by_prefix) {
    EXPECT_TRUE(flagged.empty());
  }
}

}  // namespace
}  // namespace exec
}  // namespace dime
