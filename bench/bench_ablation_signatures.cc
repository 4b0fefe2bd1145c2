// Ablation bench for the DIME+ design choices called out in DESIGN.md §5:
//   * signature filtering itself        (DIME+ vs naive DIME)
//   * the clustering strawman           (2-means, Related Work)
// Reports wall-clock time plus the engines' pair-verification counters so
// the mechanism behind the speedup is visible, and verifies that DIME+
// returns the naive engine's result. DIME+ itself takes no tuning
// options: its benefit order, transitivity skip and tuple-signature cap
// are fixed, and change effort only, never the result.

#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/kmeans.h"
#include "src/common/timer.h"
#include "src/core/dime_plus.h"
#include "src/datagen/dbgen_gen.h"
#include "src/datagen/scholar_gen.h"
#include "src/repro/experiments.h"

namespace dime {
namespace {

void Report(const char* label, double seconds, const DimeResult& r,
            const DimeResult& reference) {
  const char* match =
      r.flagged_by_prefix == reference.flagged_by_prefix ? "" : "  *MISMATCH*";
  std::printf("%-26s %8.3fs  pos_checks=%-9zu neg_checks=%-8zu%s\n", label,
              seconds, r.stats.positive_pair_checks,
              r.stats.negative_pair_checks, match);
}

void RunOn(const std::string& name, const PreparedGroup& pg,
           const std::vector<PositiveRule>& pos,
           const std::vector<NegativeRule>& neg) {
  bench::PrintTitle("Ablation on " + name);

  WallTimer t0;
  DimeResult naive = RunDime(pg, pos, neg);
  double naive_s = t0.ElapsedSeconds();

  WallTimer t1;
  DimeResult full = RunDimePlus(pg, pos, neg);
  double full_s = t1.ElapsedSeconds();

  Report("DIME (naive)", naive_s, naive, naive);
  Report("DIME+", full_s, full, naive);
}

}  // namespace
}  // namespace dime

int main() {
  using namespace dime;

  {
    ScholarSetup setup = MakeScholarSetup();
    ScholarGenOptions gen;
    gen.num_correct = bench::QuickMode() ? 300 : 1200;
    gen.coauthor_pool = 80;
    gen.seed = 11;
    Group group = GenerateScholarGroup("Ablation Page", gen);
    PreparedGroup pg =
        PrepareGroup(group, setup.positive, setup.negative, setup.context);
    RunOn("Scholar (" + std::to_string(group.size()) + " entities)", pg,
          setup.positive, setup.negative);
  }

  std::printf("\n");

  {
    DbgenOptions options;
    options.num_entities = bench::QuickMode() ? 3000 : 10000;
    options.seed = 13;
    Group group = GenerateDbgenGroup(options);
    std::vector<PositiveRule> pos = DbgenPositiveRules();
    std::vector<NegativeRule> neg = DbgenNegativeRules();
    PreparedGroup pg = PrepareGroup(group, pos, neg, {});
    RunOn("DBGen (" + std::to_string(group.size()) + " entities)", pg, pos,
          neg);
  }

  std::printf("\n");

  // The clustering strawman, for the record (Related Work / Exp-1).
  {
    bench::PrintTitle("Strawman: 2-means clustering vs DIME (Scholar)");
    ScholarExperiment setup = MakeScholarExperiment();
    std::vector<Prf> km, dime;
    for (uint64_t s = 0; s < 5; ++s) {
      ScholarGenOptions gen;
      gen.num_correct = 120;
      gen.seed = 60 + s;
      Group group = GenerateScholarGroup("KM Page", gen);
      km.push_back(EvaluateFlagged(
          group, KMeansDiscover(group, setup.features, setup.context, 8, 5)));
      DimeResult r =
          RunDimePlus(group, setup.positive, setup.negative, setup.context);
      dime.push_back(bench::BestPrefix(group, r));
    }
    bench::PrintPrf("2-means (smaller cluster)", MacroAverage(km));
    bench::PrintPrf("DIME (best scrollbar)", MacroAverage(dime));
  }
  return 0;
}
