// Golden-equality guard for the engine output on the fig6 corpora: an
// FNV-1a digest of everything user-visible in a DimeResult (partitions,
// pivot, first flagging rule, scrollbar) must match the values captured
// before the flat-layout/threshold-kernel rework — and RunDime and
// RunDimePlus must agree with each other on every corpus.
//
// Purpose: the threshold-aware kernels (sim/set_similarity.h) claim
// decisions bit-identical to the exact kernels, and the CSR arenas claim
// pure layout change. Any drift — a reordered float expression, an
// epsilon convention change, a lost entity — lands here as a digest
// mismatch before it can silently shift the reproduced figures. Stats are
// deliberately NOT digested: counters may change as instrumentation does.
//
// If a deliberate semantic change invalidates these digests, regenerate
// them by printing DigestResult for each corpus below and update the
// constants in the same change that explains why the output moved.

// The SnapshotRoundTrip* tests extend the same guard across the storage
// layer: a corpus prepared from TSV and the same corpus loaded zero-copy
// from a binary snapshot (src/store/) must drive both engines to
// bit-identical results — same digests AND same pair-check counters — on
// the bench-scale corpora (scholar-2999, amazon-10000). Any snapshot
// serialization drift (a float squeezed through text, a reordered arena,
// a lost posting list) lands here.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/dime_plus.h"
#include "src/datagen/amazon_gen.h"
#include "src/datagen/scholar_gen.h"
#include "src/repro/experiments.h"
#include "src/store/snapshot.h"

namespace dime {
namespace {

uint64_t Fnv(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 1099511628211ULL;
}

uint64_t DigestResult(const DimeResult& r) {
  uint64_t h = 1469598103934665603ULL;
  h = Fnv(h, r.partitions.size());
  for (const auto& part : r.partitions) {
    h = Fnv(h, part.size());
    for (int e : part) h = Fnv(h, static_cast<uint64_t>(e));
  }
  h = Fnv(h, static_cast<uint64_t>(r.pivot));
  for (int f : r.first_flagging_rule) {
    h = Fnv(h, static_cast<uint64_t>(static_cast<int64_t>(f)));
  }
  h = Fnv(h, r.flagged_by_prefix.size());
  for (const auto& flagged : r.flagged_by_prefix) {
    h = Fnv(h, flagged.size());
    for (int e : flagged) h = Fnv(h, static_cast<uint64_t>(e));
  }
  return h;
}

TEST(GoldenEqualityTest, ScholarFig6Corpora) {
  // Captured at the PR base (pre-rework) with the same generation
  // parameters as bench_fig6_accuracy's scholar sweep.
  const uint64_t kGolden[] = {0x18548ceb1f8a4b09ULL, 0x1ff4ea4100f80f7bULL,
                              0xb76ef4a60a06fbe9ULL};
  ScholarSetup setup = MakeScholarSetup();
  ScholarGenOptions gen;
  gen.num_correct = 120;
  for (uint64_t i = 0; i < 3; ++i) {
    gen.seed = 100 + i;
    Group group = GenerateScholarGroup("Scholar " + std::to_string(i), gen);
    PreparedGroup pg =
        PrepareGroup(group, setup.positive, setup.negative, setup.context);
    DimeResult naive = RunDime(pg, setup.positive, setup.negative);
    DimeResult plus = RunDimePlus(pg, setup.positive, setup.negative);
    EXPECT_EQ(DigestResult(naive), kGolden[i]) << "seed " << gen.seed;
    EXPECT_EQ(DigestResult(plus), kGolden[i]) << "seed " << gen.seed;
  }
}

TEST(GoldenEqualityTest, AmazonFig6Corpora) {
  // error_rate x group index -> digest, captured at the PR base.
  const uint64_t kGolden[2][2] = {
      {0x6019e2e4cea3b8bbULL, 0x83408148d2aea0daULL},  // e = 0.1
      {0x22d8105c1679cf12ULL, 0xdbcc5902bdf191bcULL},  // e = 0.4
  };
  AmazonGenOptions gen;
  gen.num_correct = 80;
  int ei = 0;
  for (double e : {0.1, 0.4}) {
    gen.error_rate = e;
    std::vector<Group> groups;
    for (int c : {0, 6}) {
      gen.seed = 40 + c;
      groups.push_back(GenerateAmazonGroup(c, gen));
    }
    AmazonSetup setup = MakeAmazonSetup(groups);
    for (size_t g = 0; g < groups.size(); ++g) {
      PreparedGroup pg = PrepareGroup(groups[g], setup.positive,
                                      setup.negative, setup.context);
      DimeResult naive = RunDime(pg, setup.positive, setup.negative);
      DimeResult plus = RunDimePlus(pg, setup.positive, setup.negative);
      EXPECT_EQ(DigestResult(naive), kGolden[ei][g])
          << "e=" << e << " group=" << g;
      EXPECT_EQ(DigestResult(plus), kGolden[ei][g])
          << "e=" << e << " group=" << g;
    }
    ++ei;
  }
}

/// Absolute expectations for one bench-scale corpus, captured at the PR
/// base (pre-SIMD/bit-parallel kernels) from a Release build. The digest
/// pins the user-visible result; the counters pin the *number* of pair
/// checks each engine performs — the kernel rework may only make each
/// check faster, never skip or add one, so these are exact equalities,
/// not bounds. Regenerate by printing DigestResult + DimeResult::Stats
/// for the corpus in the same change that explains why they moved.
struct GoldenPins {
  uint64_t digest = 0;
  uint64_t naive_positive_checks = 0;
  uint64_t naive_negative_checks = 0;
  uint64_t plus_positive_checks = 0;
  uint64_t plus_negative_checks = 0;
  uint64_t plus_candidate_pairs = 0;
  uint64_t plus_pairs_skipped_by_transitivity = 0;
};

/// Runs both engines over `groups` twice — once freshly prepared from the
/// in-memory (TSV-equivalent) corpus, once over the snapshot written to
/// `path` and loaded back zero-copy — and demands bit-identical digests
/// and pair-check counters. The warm run deliberately uses the rules that
/// round-tripped through the snapshot, not the originals. When `pins` is
/// set (single-group corpora), the cold run must also match the frozen
/// absolute digest and counters.
void ExpectSnapshotRoundTripIdentity(const std::vector<Group>& groups,
                                     const std::vector<PositiveRule>& positive,
                                     const std::vector<NegativeRule>& negative,
                                     const DimeContext& context,
                                     const std::string& path,
                                     const GoldenPins* pins = nullptr) {
  SnapshotWriteRequest request;
  request.groups = &groups;
  request.positive = &positive;
  request.negative = &negative;
  request.context = &context;
  Status written = WriteSnapshot(request, path);
  ASSERT_TRUE(written.ok()) << written.ToString();

  StatusOr<LoadedSnapshot> loaded = LoadSnapshot(path, SnapshotLoadOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->groups.size(), groups.size());
  EXPECT_TRUE(loaded->fingerprint_lo != 0 || loaded->fingerprint_hi != 0);

  for (size_t g = 0; g < groups.size(); ++g) {
    SCOPED_TRACE("group " + groups[g].name);
    PreparedGroup cold = PrepareGroup(groups[g], positive, negative, context);
    const PreparedGroup& warm = *loaded->prepared[g];
    ASSERT_EQ(warm.size(), cold.size());

    DimeResult cold_naive = RunDime(cold, positive, negative);
    DimeResult warm_naive =
        RunDime(warm, loaded->positive, loaded->negative);
    EXPECT_EQ(DigestResult(warm_naive), DigestResult(cold_naive));
    EXPECT_EQ(warm_naive.stats.positive_pair_checks,
              cold_naive.stats.positive_pair_checks);
    EXPECT_EQ(warm_naive.stats.negative_pair_checks,
              cold_naive.stats.negative_pair_checks);

    DimeResult cold_plus = RunDimePlus(cold, positive, negative);
    DimeResult warm_plus =
        RunDimePlus(warm, loaded->positive, loaded->negative);
    EXPECT_EQ(DigestResult(warm_plus), DigestResult(cold_plus));
    EXPECT_EQ(DigestResult(warm_plus), DigestResult(cold_naive));
    EXPECT_EQ(warm_plus.stats.positive_pair_checks,
              cold_plus.stats.positive_pair_checks);
    EXPECT_EQ(warm_plus.stats.negative_pair_checks,
              cold_plus.stats.negative_pair_checks);
    EXPECT_EQ(warm_plus.stats.candidate_pairs, cold_plus.stats.candidate_pairs);
    EXPECT_EQ(warm_plus.stats.pairs_skipped_by_transitivity,
              cold_plus.stats.pairs_skipped_by_transitivity);
    // Step 1 streams every candidate occurrence: each one is verified or
    // skipped by transitivity, none is deduplicated away.
    EXPECT_EQ(cold_plus.stats.positive_pair_checks +
                  cold_plus.stats.pairs_skipped_by_transitivity,
              cold_plus.stats.candidate_pairs);

    if (pins != nullptr) {
      EXPECT_EQ(DigestResult(cold_naive), pins->digest);
      EXPECT_EQ(DigestResult(cold_plus), pins->digest);
      EXPECT_EQ(cold_naive.stats.positive_pair_checks,
                pins->naive_positive_checks);
      EXPECT_EQ(cold_naive.stats.negative_pair_checks,
                pins->naive_negative_checks);
      EXPECT_EQ(cold_plus.stats.positive_pair_checks,
                pins->plus_positive_checks);
      EXPECT_EQ(cold_plus.stats.negative_pair_checks,
                pins->plus_negative_checks);
      EXPECT_EQ(cold_plus.stats.candidate_pairs, pins->plus_candidate_pairs);
      EXPECT_EQ(cold_plus.stats.pairs_skipped_by_transitivity,
                pins->plus_pairs_skipped_by_transitivity);
    }
  }
}

TEST(GoldenEqualityTest, SnapshotRoundTripScholar2999) {
  // The scholar-2999 preset corpus, the Fig. 9(a) 3000-tuple point.
  StatusOr<Corpus> corpus = MakePresetCorpus("scholar-2999");
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  GoldenPins pins;
  pins.digest = 0x63899cea9b800171ULL;
  pins.naive_positive_checks = 5294584;
  pins.naive_negative_checks = 17917;
  pins.plus_positive_checks = 2994;
  pins.plus_negative_checks = 11949;
  pins.plus_candidate_pairs = 10942516;
  pins.plus_pairs_skipped_by_transitivity = 10939522;
  ExpectSnapshotRoundTripIdentity(
      corpus->groups, corpus->positive, corpus->negative, corpus->context,
      testing::TempDir() + "/golden_scholar2999.snap", &pins);
}

TEST(GoldenEqualityTest, SnapshotRoundTripAmazon10000) {
  // The amazon-10000 preset corpus, the Fig. 9(b) 10000-tuple point.
  StatusOr<Corpus> corpus = MakePresetCorpus("amazon-10000");
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  GoldenPins pins;
  pins.digest = 0xdd8111edfbf8d618ULL;
  pins.naive_positive_checks = 149962443;
  pins.naive_negative_checks = 23313764;
  pins.plus_positive_checks = 25579;
  // Step 3 verifies only the pivot entities that share a signature with
  // the member; the zero-shared rest satisfy the rule by the dual
  // guarantee (core/signature.h).
  pins.plus_negative_checks = 1626;
  pins.plus_candidate_pairs = 63611;
  pins.plus_pairs_skipped_by_transitivity = 38032;
  ExpectSnapshotRoundTripIdentity(
      corpus->groups, corpus->positive, corpus->negative, corpus->context,
      testing::TempDir() + "/golden_amazon10000.snap", &pins);
}

}  // namespace
}  // namespace dime
