// Robustness sweeps: hostile inputs must never crash the engines —
// malformed TSV (embedded NULs, CRLF, megabyte-long lines), empty
// attribute values, single-entity groups, groups where nothing maps onto
// the ontology — and expired deadlines must truncate, not corrupt.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/common/deadline.h"
#include "src/common/random.h"
#include "src/core/dime_plus.h"
#include "src/entity/entity.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/exec/sharded_dime.h"

namespace dime {
namespace {

/// A failed parse reports one of ParseGroupTsv's two codes.
void ExpectParseOkOrRefused(const Status& status) {
  if (status.ok()) return;
  EXPECT_TRUE(status.code() == StatusCode::kParseError ||
              status.code() == StatusCode::kSchemaMismatch)
      << status.ToString();
}

TEST(RobustnessTest, GroupFromTsvSurvivesRandomGarbage) {
  Random rng(2025);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    size_t len = rng.Uniform(200);
    for (size_t i = 0; i < len; ++i) {
      // Bias toward structural characters.
      switch (rng.Uniform(6)) {
        case 0:
          text.push_back('\t');
          break;
        case 1:
          text.push_back('\n');
          break;
        case 2:
          text.push_back('|');
          break;
        default:
          text.push_back(static_cast<char>('a' + rng.Uniform(26)));
      }
    }
    Group g;
    // Must not crash; may succeed or fail.
    ExpectParseOkOrRefused(ParseGroupTsv(text, "fuzz", &g));
  }
}

TEST(RobustnessTest, GroupFromTsvSurvivesHeaderOnlyAndPrefixes) {
  Group g;
  EXPECT_TRUE(ParseGroupTsv("_id\tTitle\n", "x", &g).ok());
  EXPECT_EQ(g.size(), 0u);
  EXPECT_TRUE(ParseGroupTsv("_id\t_error\n", "x", &g).ok());  // no attributes
  EXPECT_EQ(g.schema.size(), 0u);
}

TEST(RobustnessTest, GroupFromTsvSurvivesEmbeddedNuls) {
  Random rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    std::string text = "_id\tTitle\n";
    size_t len = rng.Uniform(200);
    for (size_t i = 0; i < len; ++i) {
      switch (rng.Uniform(5)) {
        case 0:
          text.push_back('\0');
          break;
        case 1:
          text.push_back('\t');
          break;
        case 2:
          text.push_back('\n');
          break;
        default:
          text.push_back(static_cast<char>('a' + rng.Uniform(26)));
      }
    }
    Group g;
    ExpectParseOkOrRefused(ParseGroupTsv(text, "nul-fuzz", &g));
  }
  // A NUL inside a cell is data, not a terminator.
  Group g;
  std::string tsv = "_id\tTitle\ne0\tab";
  tsv.push_back('\0');
  tsv += "cd\n";
  ASSERT_TRUE(ParseGroupTsv(tsv, "nul", &g).ok());
  ASSERT_EQ(g.size(), 1u);
}

TEST(RobustnessTest, GroupFromTsvHandlesCrlf) {
  Group g;
  ASSERT_TRUE(
      ParseGroupTsv("_id\tTitle\r\ne0\tKATARA\r\ne1\tDIME", "crlf", &g).ok());
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g.entities[0].values[0], (std::vector<std::string>{"KATARA"}));
  EXPECT_EQ(g.entities[1].values[0], (std::vector<std::string>{"DIME"}));
}

TEST(RobustnessTest, GroupFromTsvSurvivesMegabyteSingleLine) {
  // One line of > 1 MB with no newline at all: header parsing must neither
  // crash nor hang.
  std::string huge(1 << 21, 'x');
  for (size_t i = 0; i < huge.size(); i += 97) huge[i] = '\t';
  Group g;
  ExpectParseOkOrRefused(ParseGroupTsv(huge, "huge", &g));

  // Same, but as a valid group whose one cell is > 1 MB.
  std::string tsv = "_id\tTitle\ne0\t" + std::string(1 << 21, 'y');
  ASSERT_TRUE(ParseGroupTsv(tsv, "huge-cell", &g).ok());
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.entities[0].values[0][0].size(), size_t{1} << 21);
}

bool PrefixSubset(const std::vector<int>& sub, const std::vector<int>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

void ExpectTruncatedButValid(const DimeResult& partial,
                             const DimeResult& full) {
  ASSERT_EQ(partial.flagged_by_prefix.size(), full.flagged_by_prefix.size());
  for (size_t k = 0; k < full.flagged_by_prefix.size(); ++k) {
    EXPECT_TRUE(PrefixSubset(partial.flagged_by_prefix[k],
                             full.flagged_by_prefix[k]))
        << "prefix " << k << " is not a subset of the untruncated run";
  }
  for (size_t k = 1; k < partial.flagged_by_prefix.size(); ++k) {
    EXPECT_TRUE(PrefixSubset(partial.flagged_by_prefix[k - 1],
                             partial.flagged_by_prefix[k]))
        << "truncated scrollbar lost monotonicity at prefix " << k;
  }
}

Group SmallScholarGroup(size_t num_correct, uint64_t seed) {
  ScholarGenOptions gen;
  gen.num_correct = num_correct;
  gen.seed = seed;
  return GenerateScholarGroup("Robustness Owner", gen);
}

TEST(RobustnessTest, ExpiredDeadlineTruncatesEveryEngine) {
  ScholarSetup setup = MakeScholarSetup();
  Group g = SmallScholarGroup(40, 99);
  PreparedGroup pg =
      PrepareGroup(g, setup.positive, setup.negative, setup.context);
  DimeResult full = RunDime(pg, setup.positive, setup.negative);
  ASSERT_TRUE(full.ok());

  RunControl expired;
  expired.deadline = Deadline::Expired();

  DimeResult naive = RunDime(pg, setup.positive, setup.negative, expired);
  EXPECT_EQ(naive.status.code(), StatusCode::kDeadlineExceeded);
  ExpectTruncatedButValid(naive, full);

  DimeResult fast = RunDimePlus(pg, setup.positive, setup.negative, expired);
  EXPECT_EQ(fast.status.code(), StatusCode::kDeadlineExceeded);
  ExpectTruncatedButValid(fast, full);

  exec::ShardedOptions sopts;
  sopts.num_threads = 2;
  DimeResult par = exec::RunDimePlusSharded(pg, setup.positive,
                                            setup.negative, sopts, expired);
  EXPECT_EQ(par.status.code(), StatusCode::kDeadlineExceeded);
  ExpectTruncatedButValid(par, full);
}

TEST(RobustnessTest, CancellationTruncatesAndExplains) {
  ScholarSetup setup = MakeScholarSetup();
  Group g = SmallScholarGroup(20, 7);
  PreparedGroup pg =
      PrepareGroup(g, setup.positive, setup.negative, setup.context);

  CancellationToken token;
  token.Cancel();
  RunControl control;
  control.cancel = &token;
  DimeResult r = RunDime(pg, setup.positive, setup.negative, control);
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(r.partitions.empty());
}

TEST(RobustnessTest, GenerousDeadlineChangesNothing) {
  ScholarSetup setup = MakeScholarSetup();
  Group g = SmallScholarGroup(15, 3);
  PreparedGroup pg =
      PrepareGroup(g, setup.positive, setup.negative, setup.context);
  DimeResult unbounded = RunDime(pg, setup.positive, setup.negative);

  RunControl generous;
  generous.deadline = Deadline::AfterMillis(60 * 1000);
  DimeResult bounded =
      RunDime(pg, setup.positive, setup.negative, generous);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(bounded.partitions, unbounded.partitions);
  EXPECT_EQ(bounded.flagged_by_prefix, unbounded.flagged_by_prefix);
}

TEST(RobustnessTest, EnginesHandleAllEmptyValues) {
  ScholarSetup setup = MakeScholarSetup();
  Group g;
  g.schema = setup.schema;
  for (int i = 0; i < 6; ++i) {
    Entity e;
    e.id = "empty" + std::to_string(i);
    e.values.assign(setup.schema.size(), {});
    g.entities.push_back(std::move(e));
  }
  PreparedGroup pg =
      PrepareGroup(g, setup.positive, setup.negative, setup.context);
  DimeResult naive = RunDime(pg, setup.positive, setup.negative);
  DimeResult fast = RunDimePlus(pg, setup.positive, setup.negative);
  EXPECT_EQ(naive.partitions, fast.partitions);
  EXPECT_EQ(naive.flagged_by_prefix, fast.flagged_by_prefix);
}

TEST(RobustnessTest, MixedEmptyAndFullEntities) {
  ScholarSetup setup = MakeScholarSetup();
  Group g;
  g.schema = setup.schema;
  auto add = [&](std::vector<std::string> authors, std::string venue) {
    Entity e;
    e.id = "e" + std::to_string(g.entities.size());
    e.values.assign(setup.schema.size(), {});
    e.values[1] = std::move(authors);  // Authors
    if (!venue.empty()) e.values[3] = {std::move(venue)};
    g.entities.push_back(std::move(e));
  };
  add({"a", "b"}, "SIGMOD 2020");
  add({"a", "b"}, "VLDB 2020");
  add({"a", "b"}, "ICDE 2020");
  add({}, "");
  add({}, "");
  PreparedGroup pg =
      PrepareGroup(g, setup.positive, setup.negative, setup.context);
  DimeResult naive = RunDime(pg, setup.positive, setup.negative);
  DimeResult fast = RunDimePlus(pg, setup.positive, setup.negative);
  EXPECT_EQ(naive.partitions, fast.partitions);
  EXPECT_EQ(naive.flagged_by_prefix, fast.flagged_by_prefix);
  // The empty entities share no author with the pivot: NR1 flags them.
  EXPECT_EQ(naive.flagged_by_prefix[0], (std::vector<int>{3, 4}));
}

TEST(RobustnessTest, SingleEntityGroupWithEveryRuleClass) {
  ScholarSetup setup = MakeScholarSetup();
  Group g;
  g.schema = setup.schema;
  Entity e;
  e.id = "only";
  e.values.assign(setup.schema.size(), {});
  e.values[1] = {"Solo Author"};
  g.entities.push_back(std::move(e));
  DimeResult r =
      RunDimePlus(g, setup.positive, setup.negative, setup.context);
  ASSERT_EQ(r.partitions.size(), 1u);
  EXPECT_EQ(r.pivot, 0);
  for (const auto& flagged : r.flagged_by_prefix) {
    EXPECT_TRUE(flagged.empty());
  }
}

TEST(RobustnessTest, NothingMapsOntoTheOntology) {
  // Venue strings that match no tree node: ontology similarity is 0
  // everywhere, and both engines must agree.
  ScholarSetup setup = MakeScholarSetup();
  Group g;
  g.schema = setup.schema;
  for (int i = 0; i < 5; ++i) {
    Entity e;
    e.id = "w" + std::to_string(i);
    e.values.assign(setup.schema.size(), {});
    e.values[1] = {"Shared Author", "Other " + std::to_string(i)};
    e.values[3] = {"Totally Unknown Workshop " + std::to_string(i)};
    g.entities.push_back(std::move(e));
  }
  PreparedGroup pg =
      PrepareGroup(g, setup.positive, setup.negative, setup.context);
  DimeResult naive = RunDime(pg, setup.positive, setup.negative);
  DimeResult fast = RunDimePlus(pg, setup.positive, setup.negative);
  EXPECT_EQ(naive.partitions, fast.partitions);
  EXPECT_EQ(naive.flagged_by_prefix, fast.flagged_by_prefix);
}

}  // namespace
}  // namespace dime
