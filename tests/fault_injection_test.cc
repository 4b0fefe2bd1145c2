// Tests for the failpoint harness and the degradation paths it proves:
// injected IO failures surface as distinct Status codes (not crashes),
// an injected DIME+ task fault reruns the group on one executor, and
// injected deadline pressure truncates the engines into partial-but-valid
// results.

#include "src/common/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/csv.h"
#include "src/core/dime.h"
#include "src/core/dime_plus.h"
#include "src/entity/entity.h"
#include "src/exec/sharded_dime.h"

namespace dime {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjection::DisarmAll(); }
};

TEST_F(FaultInjectionTest, UnarmedNeverTriggers) {
  EXPECT_FALSE(FaultInjection::AnyArmed());
  EXPECT_FALSE(DIME_FAULT_POINT(failpoints::kIoRead));
}

TEST_F(FaultInjectionTest, ArmCountsDownAndDisarms) {
  FaultInjection::Arm(failpoints::kIoRead, 2);
  EXPECT_TRUE(FaultInjection::AnyArmed());
  EXPECT_EQ(FaultInjection::Remaining(failpoints::kIoRead), 2);
  EXPECT_TRUE(DIME_FAULT_POINT(failpoints::kIoRead));
  EXPECT_TRUE(DIME_FAULT_POINT(failpoints::kIoRead));
  EXPECT_FALSE(DIME_FAULT_POINT(failpoints::kIoRead));
  EXPECT_FALSE(FaultInjection::AnyArmed());
}

TEST_F(FaultInjectionTest, SkipDelaysFiring) {
  FaultInjection::Arm(failpoints::kEngineDeadline, /*count=*/1, /*skip=*/2);
  EXPECT_FALSE(DIME_FAULT_POINT(failpoints::kEngineDeadline));
  EXPECT_FALSE(DIME_FAULT_POINT(failpoints::kEngineDeadline));
  EXPECT_TRUE(DIME_FAULT_POINT(failpoints::kEngineDeadline));
  EXPECT_FALSE(DIME_FAULT_POINT(failpoints::kEngineDeadline));
}

TEST_F(FaultInjectionTest, FailpointsAreIndependent) {
  FaultInjection::Arm(failpoints::kIoRead, 1);
  EXPECT_FALSE(DIME_FAULT_POINT(failpoints::kWorkerFault));
  EXPECT_TRUE(DIME_FAULT_POINT(failpoints::kIoRead));
}

TEST_F(FaultInjectionTest, ScopedFailpointDisarmsOnExit) {
  {
    ScopedFailpoint fp(failpoints::kIoRead, 100);
    EXPECT_TRUE(FaultInjection::AnyArmed());
  }
  EXPECT_FALSE(FaultInjection::AnyArmed());
  EXPECT_FALSE(DIME_FAULT_POINT(failpoints::kIoRead));
}

// ---------------------------------------------------------------------------
// IO failure injection: an injected read failure must surface as IO_ERROR,
// distinct from NOT_FOUND (missing file) and PARSE_ERROR (malformed data).

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good());
}

TEST_F(FaultInjectionTest, InjectedReadFailureIsIoError) {
  const std::string path = TempPath("fi_read.tsv");
  WriteFile(path, "a\tb\nc\td\n");

  {
    ScopedFailpoint fp(failpoints::kIoRead);
    StatusOr<std::vector<TsvRow>> rows = ReadTsv(path);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kIoError);
  }
  // Disarmed: the same read succeeds.
  StatusOr<std::vector<TsvRow>> rows = ReadTsv(path);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(FaultInjectionTest, IoErrorDistinctFromNotFoundAndParseError) {
  const std::string good = TempPath("fi_group.tsv");
  Group g;
  g.name = "g";
  g.schema = Schema({"Authors"});
  Entity e;
  e.id = "e0";
  e.values = {{"a"}};
  g.entities.push_back(e);
  ASSERT_TRUE(SaveGroup(g, good).ok());

  // Missing file: NOT_FOUND.
  Group out;
  Status missing = LoadGroup(TempPath("fi_missing.tsv"), "g", &out);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);

  // Malformed header: PARSE_ERROR.
  const std::string bad = TempPath("fi_bad.tsv");
  WriteFile(bad, "foo\tbar\nx\ty\n");
  Status parse = LoadGroup(bad, "g", &out);
  EXPECT_EQ(parse.code(), StatusCode::kParseError);

  // Wrong row width: SCHEMA_MISMATCH.
  const std::string skew = TempPath("fi_skew.tsv");
  WriteFile(skew, "_id\tAuthors\ne0\ta\textra\n");
  Status schema = LoadGroup(skew, "g", &out);
  EXPECT_EQ(schema.code(), StatusCode::kSchemaMismatch);

  // Injected read failure on a perfectly good file: IO_ERROR.
  ScopedFailpoint fp(failpoints::kIoRead);
  Status io = LoadGroup(good, "g", &out);
  EXPECT_EQ(io.code(), StatusCode::kIoError);
  EXPECT_NE(io.code(), missing.code());
  EXPECT_NE(io.code(), parse.code());
  EXPECT_NE(io.code(), schema.code());
}

// ---------------------------------------------------------------------------
// Engine fixtures (the running example of dime_test.cc: pivot {0,1,2},
// partition {3} flagged by the second negative rule, {4} by the first).

Group AuthorsGroup(std::vector<std::vector<std::string>> author_lists) {
  Group g;
  g.name = "authors";
  g.schema = Schema({"Authors"});
  for (size_t i = 0; i < author_lists.size(); ++i) {
    Entity e;
    e.id = "e" + std::to_string(i);
    e.values = {std::move(author_lists[i])};
    g.entities.push_back(std::move(e));
  }
  return g;
}

std::vector<PositiveRule> OverlapPositive(double theta) {
  PositiveRule r;
  Predicate p;
  p.attr = 0;
  p.func = SimFunc::kOverlap;
  p.threshold = theta;
  r.predicates = {p};
  return {r};
}

std::vector<NegativeRule> OverlapNegative(std::vector<double> sigmas) {
  std::vector<NegativeRule> rules;
  for (double s : sigmas) {
    NegativeRule r;
    Predicate p;
    p.attr = 0;
    p.func = SimFunc::kOverlap;
    p.threshold = s;
    r.predicates = {p};
    rules.push_back(r);
  }
  return rules;
}

Group ExampleGroup() {
  return AuthorsGroup({{"a", "b", "x"},
                       {"a", "b", "y"},
                       {"a", "b", "z"},
                       {"a", "w"},
                       {"q", "r"}});
}

bool IsSubset(const std::vector<int>& sub, const std::vector<int>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

void ExpectMonotone(const DimeResult& r) {
  for (size_t k = 1; k < r.flagged_by_prefix.size(); ++k) {
    EXPECT_TRUE(IsSubset(r.flagged_by_prefix[k - 1], r.flagged_by_prefix[k]))
        << "prefix " << k - 1 << " not contained in prefix " << k;
  }
}

// ---------------------------------------------------------------------------
// Worker-fault injection: a throwing worker must never crash the process.

TEST_F(FaultInjectionTest, WorkerFaultFallsBackToSerialBitIdentical) {
  Group g = ExampleGroup();
  std::vector<PositiveRule> positive = OverlapPositive(2);
  std::vector<NegativeRule> negative = OverlapNegative({0, 1});
  PreparedGroup pg = PrepareGroup(g, positive, negative, {});

  DimeResult serial = RunDime(pg, positive, negative);
  ASSERT_TRUE(serial.ok());

  ScopedFailpoint fp(failpoints::kWorkerFault);
  exec::ShardedOptions options;
  options.num_threads = 2;
  DimeResult parallel =
      exec::RunDimePlusSharded(pg, positive, negative, options);

  EXPECT_TRUE(parallel.ok());
  EXPECT_EQ(parallel.partitions, serial.partitions);
  EXPECT_EQ(parallel.pivot, serial.pivot);
  EXPECT_EQ(parallel.first_flagging_rule, serial.first_flagging_rule);
  EXPECT_EQ(parallel.flagged_by_prefix, serial.flagged_by_prefix);
}

// ---------------------------------------------------------------------------
// Deadline-pressure injection: truncated results are partial but valid —
// every flagged set is a subset of the untruncated run's and the scrollbar
// stays monotone.

TEST_F(FaultInjectionTest, DeadlinePressureInStepOneDiscardsPartitions) {
  Group g = ExampleGroup();
  std::vector<PositiveRule> positive = OverlapPositive(2);
  std::vector<NegativeRule> negative = OverlapNegative({0, 1});
  PreparedGroup pg = PrepareGroup(g, positive, negative, {});

  // Fires at the very first check: expiry mid-partitioning would leave
  // half-merged partitions, so none are reported.
  ScopedFailpoint fp(failpoints::kEngineDeadline, /*count=*/1000);
  DimeResult r = RunDime(pg, positive, negative);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r.partitions.empty());
  EXPECT_EQ(r.pivot, -1);
  ASSERT_EQ(r.flagged_by_prefix.size(), negative.size());
  for (const std::vector<int>& flagged : r.flagged_by_prefix) {
    EXPECT_TRUE(flagged.empty());
  }
}

TEST_F(FaultInjectionTest, DeadlinePressureInStepThreeKeepsPartialFlags) {
  Group g = ExampleGroup();
  std::vector<PositiveRule> positive = OverlapPositive(2);
  std::vector<NegativeRule> negative = OverlapNegative({0, 1});
  PreparedGroup pg = PrepareGroup(g, positive, negative, {});

  DimeResult full = RunDime(pg, positive, negative);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.flagged_by_prefix[0], (std::vector<int>{4}));
  EXPECT_EQ(full.flagged_by_prefix[1], (std::vector<int>{3, 4}));

  // RunDime checks once per row in step 1 (5 rows) and once per non-pivot
  // partition in step 3. Skipping 6 hits positions the failure at the
  // second non-pivot partition: {3} gets evaluated, {4} does not.
  ScopedFailpoint fp(failpoints::kEngineDeadline, /*count=*/1000, /*skip=*/6);
  DimeResult partial = RunDime(pg, positive, negative);
  EXPECT_EQ(partial.status.code(), StatusCode::kDeadlineExceeded);

  // Partitioning completed before the injected expiry.
  EXPECT_EQ(partial.partitions, full.partitions);
  EXPECT_EQ(partial.pivot, full.pivot);

  // Partial, not empty: the run got through partition {3}.
  ASSERT_EQ(partial.flagged_by_prefix.size(), full.flagged_by_prefix.size());
  EXPECT_EQ(partial.flagged_by_prefix[1], (std::vector<int>{3}));

  // Validity: subsets of the untruncated run, still monotone.
  for (size_t k = 0; k < full.flagged_by_prefix.size(); ++k) {
    EXPECT_TRUE(
        IsSubset(partial.flagged_by_prefix[k], full.flagged_by_prefix[k]))
        << "prefix " << k;
  }
  ExpectMonotone(partial);
}

TEST_F(FaultInjectionTest, DeadlinePressureTruncatesDimePlus) {
  Group g = ExampleGroup();
  std::vector<PositiveRule> positive = OverlapPositive(2);
  std::vector<NegativeRule> negative = OverlapNegative({0, 1});
  PreparedGroup pg = PrepareGroup(g, positive, negative, {});

  DimeResult full = RunDimePlus(pg, positive, negative);
  ASSERT_TRUE(full.ok());

  ScopedFailpoint fp(failpoints::kEngineDeadline, /*count=*/1000);
  DimeResult r = RunDimePlus(pg, positive, negative);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  ASSERT_EQ(r.flagged_by_prefix.size(), full.flagged_by_prefix.size());
  for (size_t k = 0; k < full.flagged_by_prefix.size(); ++k) {
    EXPECT_TRUE(IsSubset(r.flagged_by_prefix[k], full.flagged_by_prefix[k]));
  }
  ExpectMonotone(r);
}

TEST_F(FaultInjectionTest, DeadlinePressureTruncatesParallel) {
  Group g = ExampleGroup();
  std::vector<PositiveRule> positive = OverlapPositive(2);
  std::vector<NegativeRule> negative = OverlapNegative({0, 1});
  PreparedGroup pg = PrepareGroup(g, positive, negative, {});

  DimeResult full = RunDime(pg, positive, negative);
  ASSERT_TRUE(full.ok());

  exec::ShardedOptions options;
  options.num_threads = 2;
  ScopedFailpoint fp(failpoints::kEngineDeadline, /*count=*/1000);
  DimeResult r = exec::RunDimePlusSharded(pg, positive, negative, options);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  ASSERT_EQ(r.flagged_by_prefix.size(), full.flagged_by_prefix.size());
  for (size_t k = 0; k < full.flagged_by_prefix.size(); ++k) {
    EXPECT_TRUE(IsSubset(r.flagged_by_prefix[k], full.flagged_by_prefix[k]));
  }
  ExpectMonotone(r);
}

}  // namespace
}  // namespace dime
