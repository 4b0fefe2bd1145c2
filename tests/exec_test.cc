#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/random.h"
#include "src/core/dime.h"
#include "src/core/dime_plus.h"
#include "src/datagen/dbgen_gen.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/exec/group_by_signature.h"
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
// GroupBySignature: the serial form and the pooled form at 1, 2 and 4
// threads must equal std::stable_sort by signature on every input.

using Posting = std::pair<uint64_t, int>;

std::vector<Posting> StableSortedBySignature(std::vector<Posting> v) {
  std::stable_sort(v.begin(), v.end(),
                   [](const Posting& a, const Posting& b) {
                     return a.first < b.first;
                   });
  return v;
}

std::vector<Posting> GroupSerially(const std::vector<Posting>& input) {
  std::vector<Posting> out;
  dime::GroupBySignature<int>(
      input.size(),
      [&input](const auto& emit) {
        for (const Posting& e : input) emit(e.first, e.second);
      },
      &out);
  return out;
}

// Splits the input into 7 uneven parts (some empty) read in place, and
// checks the part and range callbacks' contracts along the way.
std::vector<Posting> GroupOnPool(const std::vector<Posting>& input,
                                 unsigned threads) {
  WorkStealingPool pool(PoolOptions{threads});
  const size_t n = input.size();
  const std::vector<size_t> bounds = {
      0, 0, n / 9, n / 3, n / 3, std::min(n, n / 2 + 1), n - n / 7, n};
  const size_t num_parts = bounds.size() - 1;
  std::vector<std::atomic<int>> released(num_parts);
  std::vector<Posting> out;
  const std::vector<std::pair<size_t, size_t>> ranges = GroupBySignature<int>(
      &pool, n, num_parts,
      [&](size_t p, const auto& emit) {
        EXPECT_EQ(released[p].load(), 0) << "part " << p << " read late";
        for (size_t i = bounds[p]; i < bounds[p + 1]; ++i) {
          emit(input[i].first, input[i].second);
        }
      },
      [&released](size_t p) { released[p].fetch_add(1); },
      &out,
      [](size_t begin, size_t end) { return std::make_pair(begin, end); });
  for (size_t p = 0; p < num_parts; ++p) {
    EXPECT_EQ(released[p].load(), 1) << "part " << p;
  }
  // The ranges tile [0, n) in order and never split a signature's run.
  size_t next = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, next);
    EXPECT_LE(begin, end);
    if (begin > 0 && begin < n) {
      EXPECT_NE(out[begin - 1].first, out[begin].first) << "at " << begin;
    }
    next = end;
  }
  EXPECT_EQ(next, n);
  return out;
}

void ExpectGroupsLikeStableSort(const std::vector<Posting>& input,
                                const std::string& what) {
  const std::vector<Posting> expected = StableSortedBySignature(input);
  EXPECT_EQ(GroupSerially(input), expected) << what << ", serial";
  for (unsigned threads : {1u, 2u, 4u}) {
    EXPECT_EQ(GroupOnPool(input, threads), expected)
        << what << ", pooled at " << threads << " threads";
  }
}

TEST(GroupBySignatureTest, RandomKeysAtEverySize) {
  const size_t sizes[] = {0,  1,  2,  63, 64, 65, (1u << 15) - 1,
                          1u << 15, (1u << 15) + 1, 300000};
  for (size_t n : sizes) {
    Random rng(17 + n);
    std::vector<Posting> input;
    input.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      input.emplace_back(rng.NextUint64(), static_cast<int>(i));
    }
    ExpectGroupsLikeStableSort(input, "random keys, n=" + std::to_string(n));
  }
}

TEST(GroupBySignatureTest, EveryKeyEqual) {
  for (size_t n : {size_t{40}, size_t{1} << 16}) {
    std::vector<Posting> input;
    for (size_t i = 0; i < n; ++i) {
      input.emplace_back(0x9e3779b97f4a7c15ULL, static_cast<int>(i));
    }
    ExpectGroupsLikeStableSort(input, "equal keys, n=" + std::to_string(n));
  }
}

TEST(GroupBySignatureTest, KeysSharingTheirTopBitsFallInOneBucket) {
  // Keys below 2^20 have zero top bits at every bucket width, so the
  // whole input is one crowded bucket with many repeated keys.
  for (size_t n : {size_t{1000}, (size_t{1} << 15) + 3}) {
    Random rng(23 + n);
    std::vector<Posting> input;
    for (size_t i = 0; i < n; ++i) {
      input.emplace_back(rng.Uniform(1u << 20) % (n / 4),
                         static_cast<int>(i));
    }
    ExpectGroupsLikeStableSort(input, "low keys, n=" + std::to_string(n));
  }
}

TEST(SortByKeyTest, MatchesAStableSortAtEveryThreadCount) {
  // Few keys and many elements give every executor a slice; payloads
  // record input order, so an unstable scatter shows.
  for (const auto& [n, num_keys] :
       {std::pair<size_t, size_t>{0, 5}, std::pair<size_t, size_t>{1000, 7},
        std::pair<size_t, size_t>{200000, 50},
        std::pair<size_t, size_t>{200000, 150000}}) {
    Random rng(31 + n + num_keys);
    std::vector<std::pair<size_t, size_t>> input;
    for (size_t i = 0; i < n; ++i) input.emplace_back(rng.Uniform(num_keys), i);
    std::vector<std::pair<size_t, size_t>> expected = input;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (unsigned threads : {1u, 2u, 4u}) {
      WorkStealingPool pool(PoolOptions{threads});
      std::vector<std::pair<size_t, size_t>> out;
      SortByKey(
          &pool, input, num_keys, [](const auto& x) { return x.first; }, &out);
      EXPECT_EQ(out, expected)
          << "n=" << n << " keys=" << num_keys << " threads=" << threads;
    }
  }
}

TEST(GroupBySignatureTest, TiesKeepInputOrderWithDescendingPayloads) {
  // Few distinct keys, payloads descending: a sort by (key, payload)
  // would reverse every run, a stable grouping must not.
  for (size_t n : {size_t{500}, size_t{100000}}) {
    Random rng(29 + n);
    std::vector<uint64_t> keys;
    for (int k = 0; k < 37; ++k) keys.push_back(rng.NextUint64());
    std::vector<Posting> input;
    for (size_t i = 0; i < n; ++i) {
      input.emplace_back(keys[rng.Uniform(keys.size())],
                         static_cast<int>(n - i));
    }
    ExpectGroupsLikeStableSort(input,
                               "descending payloads, n=" + std::to_string(n));
  }
}

// ---------------------------------------------------------------------------
// The DIME+ body on pools of every size against RunDimePlus (one
// executor) and the RunDime oracle.

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
    if (threads == 1) {
      // One executor runs the tasks in spawn order: every stat is
      // RunDimePlus's.
      EXPECT_EQ(sharded.stats.positive_pair_checks,
                serial.stats.positive_pair_checks);
      EXPECT_EQ(sharded.stats.pairs_skipped_by_transitivity,
                serial.stats.pairs_skipped_by_transitivity);
    }
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

TEST(ShardedDimePlusTest, FaultInTheRerunIsInternal) {
  // On one executor a task fault cancels the rest of its group, so the
  // first trigger fails the run and the second fails its rerun.
  DbgenFixture f(400);
  ShardedOptions options;
  options.num_threads = 1;
  for (bool sharded_entry : {false, true}) {
    FaultInjection::Arm(failpoints::kWorkerFault, /*count=*/2);
    DimeResult r =
        sharded_entry
            ? RunDimePlusSharded(f.pg, f.positive, f.negative, options)
            : RunDimePlus(f.pg, f.positive, f.negative);
    EXPECT_EQ(FaultInjection::Remaining(failpoints::kWorkerFault), 0);
    FaultInjection::DisarmAll();
    EXPECT_EQ(r.status.code(), StatusCode::kInternal) << r.status.ToString();
    EXPECT_TRUE(r.partitions.empty());
    EXPECT_EQ(r.pivot, -1);
    ASSERT_EQ(r.flagged_by_prefix.size(), f.negative.size());
    for (const std::vector<int>& flagged : r.flagged_by_prefix) {
      EXPECT_TRUE(flagged.empty());
    }
  }
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
