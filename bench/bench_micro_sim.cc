// Micro-benchmarks (google-benchmark) for the hand-rolled primitives the
// engines are built from: set-similarity kernels, banded edit distance,
// ontology LCA similarity, signature generation, group preparation and
// the signature grouping under the inverted lists. These are the
// building blocks whose costs the paper's verification cost model
// (Section IV-C) approximates.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/datagen/scholar_gen.h"
#include "src/datagen/presets.h"
#include "src/core/signature.h"
#include "src/index/group_by_signature.h"
#include "src/ontology/builtin.h"
#include "src/sim/edit_distance.h"
#include "src/sim/set_similarity.h"
#include "src/sim/weighted_similarity.h"
#include "src/text/tokenizer.h"

namespace dime {
namespace {

std::vector<uint32_t> RandomSortedSet(Random* rng, size_t size,
                                      uint32_t universe) {
  std::vector<uint32_t> v;
  while (v.size() < size) {
    v.push_back(static_cast<uint32_t>(rng->Uniform(universe)));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return v;
}

void BM_SetIntersection(benchmark::State& state) {
  Random rng(1);
  size_t size = static_cast<size_t>(state.range(0));
  auto a = RandomSortedSet(&rng, size, static_cast<uint32_t>(size * 4));
  auto b = RandomSortedSet(&rng, size, static_cast<uint32_t>(size * 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectionSize(a, b));
  }
}
BENCHMARK(BM_SetIntersection)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_JaccardSim(benchmark::State& state) {
  Random rng(2);
  size_t size = static_cast<size_t>(state.range(0));
  auto a = RandomSortedSet(&rng, size, static_cast<uint32_t>(size * 4));
  auto b = RandomSortedSet(&rng, size, static_cast<uint32_t>(size * 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaccardSim(a, b));
  }
}
BENCHMARK(BM_JaccardSim)->Arg(8)->Arg(64);

// The threshold-aware path on a pair that cannot reach the requirement:
// random same-size sets overlap ~25% here, so demanding a full match
// trips the cannot-reach bound within a few merge steps. Compare against
// BM_SetIntersection, which always walks both inputs to the end.
void BM_IntersectionAtLeastReject(benchmark::State& state) {
  Random rng(1);
  size_t size = static_cast<size_t>(state.range(0));
  auto a = RandomSortedSet(&rng, size, static_cast<uint32_t>(size * 4));
  auto b = RandomSortedSet(&rng, size, static_cast<uint32_t>(size * 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectionAtLeast(a, b, size));
  }
}
BENCHMARK(BM_IntersectionAtLeastReject)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// The cannot-miss side: identical sets with a requirement of half their
// size decide after size/2 matches.
void BM_IntersectionAtLeastAccept(benchmark::State& state) {
  Random rng(1);
  size_t size = static_cast<size_t>(state.range(0));
  auto a = RandomSortedSet(&rng, size, static_cast<uint32_t>(size * 4));
  auto b = a;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectionAtLeast(a, b, size / 2 + 1));
  }
}
BENCHMARK(BM_IntersectionAtLeastAccept)->Arg(16)->Arg(64)->Arg(256);

// Skewed sizes take the galloping path: the short side drives binary
// probes into the long one instead of merging through it.
void BM_IntersectionAtLeastGallop(benchmark::State& state) {
  Random rng(1);
  size_t size = static_cast<size_t>(state.range(0));
  auto a = RandomSortedSet(&rng, 8, static_cast<uint32_t>(size * 4));
  auto b = RandomSortedSet(&rng, size, static_cast<uint32_t>(size * 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectionAtLeast(a, b, 4));
  }
}
BENCHMARK(BM_IntersectionAtLeastGallop)->Arg(256)->Arg(1024)->Arg(4096);

// The predicate entry point the engines actually call: thresholded
// Jaccard at 0.9 over ~25%-overlap inputs (rejects early).
void BM_JaccardAtLeast(benchmark::State& state) {
  Random rng(2);
  size_t size = static_cast<size_t>(state.range(0));
  auto a = RandomSortedSet(&rng, size, static_cast<uint32_t>(size * 4));
  auto b = RandomSortedSet(&rng, size, static_cast<uint32_t>(size * 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SetSimilarityAtLeast(SimFunc::kJaccard, a, b, 0.9));
  }
}
BENCHMARK(BM_JaccardAtLeast)->Arg(8)->Arg(64)->Arg(256);

std::string RandomString(Random* rng, size_t len) {
  std::string s;
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng->Uniform(26)));
  }
  return s;
}

void BM_EditDistanceFull(benchmark::State& state) {
  Random rng(3);
  size_t len = static_cast<size_t>(state.range(0));
  std::string a = RandomString(&rng, len), b = RandomString(&rng, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistanceFull)->Arg(16)->Arg(64)->Arg(256);

void BM_EditDistanceBanded(benchmark::State& state) {
  Random rng(3);
  size_t len = static_cast<size_t>(state.range(0));
  std::string a = RandomString(&rng, len);
  std::string b = a;
  b[len / 2] = '!';  // distance 1: the band stays narrow
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistanceWithin(a, b, 3));
  }
}
BENCHMARK(BM_EditDistanceBanded)->Arg(16)->Arg(64)->Arg(256);

void BM_OntologySimilarity(benchmark::State& state) {
  const Ontology& tree = *VenueOntology();
  Random rng(4);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 64; ++i) {
    pairs.emplace_back(static_cast<int>(rng.Uniform(tree.NumNodes())),
                       static_cast<int>(rng.Uniform(tree.NumNodes())));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(tree.Similarity(a, b));
  }
}
BENCHMARK(BM_OntologySimilarity);

void BM_KeywordMapping(benchmark::State& state) {
  const Ontology& tree = *VenueOntology();
  std::vector<std::string> tokens =
      WordTokenize("efficient query index join towards cleaning systems");
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.MapByKeywords(tokens));
  }
}
BENCHMARK(BM_KeywordMapping);

void BM_SignatureGeneration(benchmark::State& state) {
  ScholarSetup setup = MakeScholarSetup();
  ScholarGenOptions gen;
  gen.num_correct = static_cast<size_t>(state.range(0));
  gen.seed = 5;
  Group group = GenerateScholarGroup("Sig Bench", gen);
  PreparedGroup pg =
      PrepareGroup(group, setup.positive, setup.negative, setup.context);
  for (auto _ : state) {
    SignatureGenerator sigs(pg, setup.positive[1].predicates, Direction::kGe,
                            1);
    // Scratch hoisted out of the entity loop, as the production indexing
    // loops do (RunDimePlus step 1, RunDimePlusSharded step 1a).
    SignatureScratch scratch;
    uint64_t total = 0;
    for (size_t e = 0; e < pg.size(); ++e) {
      total += sigs.PositiveRuleSignatures(static_cast<int>(e), &scratch).size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pg.size()));
}
BENCHMARK(BM_SignatureGeneration)->Arg(100)->Arg(400);

void BM_WeightedJaccard(benchmark::State& state) {
  Random rng(5);
  size_t size = static_cast<size_t>(state.range(0));
  auto a = RandomSortedSet(&rng, size, static_cast<uint32_t>(size * 4));
  auto b = RandomSortedSet(&rng, size, static_cast<uint32_t>(size * 4));
  std::vector<double> weights(size * 4, 1.0);
  for (double& w : weights) w = 0.1 + rng.UniformDouble() * 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(WeightedJaccardSim(a, b, weights));
  }
}
BENCHMARK(BM_WeightedJaccard)->Arg(8)->Arg(64);

// Thresholded weighted Jaccard with precomputed per-entity mass, as a
// rule plan (PlanPredicateHolds) calls it: the running upper bound
// rejects theta=0.9 pairs without draining both rank lists.
void BM_WeightedJaccardAtLeast(benchmark::State& state) {
  Random rng(5);
  size_t size = static_cast<size_t>(state.range(0));
  auto a = RandomSortedSet(&rng, size, static_cast<uint32_t>(size * 4));
  auto b = RandomSortedSet(&rng, size, static_cast<uint32_t>(size * 4));
  std::vector<double> weights(size * 4, 1.0);
  for (double& w : weights) w = 0.1 + rng.UniformDouble() * 3.0;
  const double mass_a = TotalWeight(a, weights);
  const double mass_b = TotalWeight(b, weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WeightedSimilarityAtLeast(
        SimFunc::kWeightedJaccard, a, b, weights, mass_a, mass_b, 0.9));
  }
}
BENCHMARK(BM_WeightedJaccardAtLeast)->Arg(8)->Arg(64);

void BM_PrepareGroup(benchmark::State& state) {
  ScholarSetup setup = MakeScholarSetup();
  ScholarGenOptions gen;
  gen.num_correct = static_cast<size_t>(state.range(0));
  gen.seed = 6;
  Group group = GenerateScholarGroup("Prep Bench", gen);
  for (auto _ : state) {
    PreparedGroup pg =
        PrepareGroup(group, setup.positive, setup.negative, setup.context);
    benchmark::DoNotOptimize(pg.attrs.size());
  }
}
BENCHMARK(BM_PrepareGroup)->Arg(100)->Arg(400);

// One serial GroupBySignature run, the grouping under both DIME+ steps
// (the inverted lists of step 1, the pivot signature map of step 3):
// n postings in ascending entity order whose uniform signatures come from
// a pool of n / 4, so lists average four entities.
void BM_SortPostings(benchmark::State& state) {
  Random rng(7);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> pool(n / 4 + 1);
  for (uint64_t& sig : pool) sig = rng.NextUint64();
  std::vector<std::pair<uint64_t, int>> postings;
  postings.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    postings.emplace_back(pool[rng.Uniform(pool.size())],
                          static_cast<int>(i / 8));
  }
  std::vector<std::pair<uint64_t, int>> grouped;
  for (auto _ : state) {
    GroupBySignature<int>(
        n,
        [&postings](const auto& emit) {
          for (const std::pair<uint64_t, int>& p : postings) {
            emit(p.first, p.second);
          }
        },
        &grouped);
    benchmark::DoNotOptimize(grouped.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SortPostings)->Arg(8192)->Arg(1048576);

}  // namespace
}  // namespace dime

// Hand-rolled main instead of BENCHMARK_MAIN: the Release guard must see
// argv before google-benchmark does (and strip --allow-debug, which
// benchmark would reject as unrecognized).
int main(int argc, char** argv) {
  if (!dime::bench::GuardReleaseBuild(&argc, argv)) return 1;
  benchmark::Initialize(&argc, argv);
  // google-benchmark's built-in context.library_build_type describes the
  // system benchmark library; this key records how the dime library
  // itself was built. tools/check_micro_baseline.sh refuses a frozen
  // baseline whose value is not "release".
  benchmark::AddCustomContext("dime_library_build_type",
                              dime::bench::LibraryBuildType());
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
