// Figure 9: efficiency — wall-clock seconds of DIME, DIME+, CR and SVM
// while the number of entities grows.
//  (a) Google Scholar pages from 500 to 3000 entities.
//  (b) Amazon categories from 2000 to 10000 entities at e = 40%.
//
// The shape to reproduce: DIME+ < DIME << CR, SVM, with the gap widening
// with group size (the paper reports DIME+ 2-10x faster than DIME).
//
//   --allow-debug   time a non-Release build anyway (see bench_util.h)

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/cr.h"
#include "src/baselines/svm.h"
#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/core/dime_plus.h"
#include "src/datagen/amazon_gen.h"
#include "src/datagen/scholar_gen.h"
#include "src/repro/experiments.h"

namespace dime {
namespace {

using bench::PrintTitle;
using bench::QuickMode;

struct Timings {
  double dime, dime_plus, cr, svm;
};

Timings TimeAll(const Group& group, const std::vector<PositiveRule>& pos,
                const std::vector<NegativeRule>& neg,
                const DimeContext& context, const CrConfig& cr_config,
                const std::vector<FeatureSpec>& features,
                const LinearSvm& svm) {
  Timings t;
  {
    WallTimer timer;
    PreparedGroup pg = PrepareGroup(group, pos, neg, context);
    DimeResult r = RunDime(pg, pos, neg);
    t.dime = timer.ElapsedSeconds();
  }
  {
    WallTimer timer;
    PreparedGroup pg = PrepareGroup(group, pos, neg, context);
    DimeResult r = RunDimePlus(pg, pos, neg);
    t.dime_plus = timer.ElapsedSeconds();
  }
  {
    WallTimer timer;
    CrResult r = RunCr(group, cr_config);
    t.cr = timer.ElapsedSeconds();
  }
  {
    WallTimer timer;
    std::vector<int> flagged = SvmDiscover(group, features, svm, context);
    t.svm = timer.ElapsedSeconds();
  }
  return t;
}

void RunScholar() {
  PrintTitle("Fig. 9(a)  Scholar: runtime (seconds) vs #entities");
  ScholarExperiment setup = MakeScholarExperiment();

  // Train the SVM once on small groups.
  ScholarGenOptions gen;
  gen.num_correct = 100;
  std::vector<Group> train_groups;
  for (uint64_t s = 0; s < 2; ++s) {
    gen.seed = 900 + s;
    train_groups.push_back(
        GenerateScholarGroup("Trainer " + std::to_string(s), gen));
  }
  LinearSvm svm;
  DIME_CHECK(svm.Train(ComputeFeatures(
                           train_groups,
                           SampleExamplePairs(train_groups, 60, 60, 7),
                           setup.features, setup.context),
                       SvmOptions{})
                 .ok());

  std::vector<size_t> sizes = QuickMode()
                                  ? std::vector<size_t>{500, 1000}
                                  : std::vector<size_t>{500, 1000, 1500,
                                                        2000, 2500, 3000};
  std::printf("%-8s | %8s %8s %8s %8s\n", "#tuples", "DIME", "DIME+", "CR",
              "SVM");
  bench::PrintRule();
  for (size_t n : sizes) {
    ScholarGenOptions big;
    big.num_correct = n - 18;  // ~13 errors + 5 odd correct pubs
    big.coauthor_pool = 40 + n / 20;
    big.seed = 3000 + n;
    Group group = GenerateScholarGroup("Big Page", big);
    Timings t = TimeAll(group, setup.positive, setup.negative, setup.context,
                        setup.cr, setup.features, svm);
    std::printf("%-8zu | %8.3f %8.3f %8.3f %8.3f\n", group.size(), t.dime,
                t.dime_plus, t.cr, t.svm);
  }
}

void RunAmazon() {
  PrintTitle("Fig. 9(b)  Amazon (e=40%): runtime (seconds) vs #entities");
  std::vector<size_t> sizes =
      QuickMode() ? std::vector<size_t>{1000, 2000}
                  : std::vector<size_t>{2000, 4000, 6000, 8000, 10000};

  std::printf("%-8s | %8s %8s %8s %8s\n", "#tuples", "DIME", "DIME+", "CR",
              "SVM");
  bench::PrintRule();
  for (size_t n : sizes) {
    AmazonGenOptions gen;
    gen.error_rate = 0.4;
    gen.num_correct = static_cast<size_t>(n * 0.6);
    gen.window = 12;
    gen.seed = 4000 + n;
    int category = static_cast<int>(n / 2000) % 20;
    std::vector<Group> corpus{GenerateAmazonGroup(category, gen)};
    AmazonSetup setup = MakeAmazonSetup(corpus);

    // SVM trained on a small same-rate corpus.
    AmazonGenOptions small = gen;
    small.num_correct = 100;
    small.seed = 77;
    std::vector<Group> train_groups{GenerateAmazonGroup((category + 1) % 20,
                                                        small)};
    LinearSvm svm;
    DIME_CHECK(svm.Train(ComputeFeatures(
                             train_groups,
                             SampleExamplePairs(train_groups, 60, 60, 7),
                             setup.features, setup.context),
                         SvmOptions{})
                   .ok());

    Timings t = TimeAll(corpus[0], setup.positive, setup.negative,
                        setup.context, setup.cr, setup.features, svm);
    std::printf("%-8zu | %8.3f %8.3f %8.3f %8.3f\n", corpus[0].size(), t.dime,
                t.dime_plus, t.cr, t.svm);
  }
}

}  // namespace
}  // namespace dime

int main(int argc, char** argv) {
  if (!dime::bench::GuardReleaseBuild(&argc, argv)) return 1;
  if (argc > 1) {
    std::fprintf(stderr, "unknown flag: %s\n", argv[1]);
    return 2;
  }
  dime::RunScholar();
  std::printf("\n");
  dime::RunAmazon();
  std::printf("\n");
  return 0;
}
