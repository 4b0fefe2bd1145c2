// Figure 6: accuracy of DIME vs CR vs SVM.
//  (a) Google Scholar: precision/recall/F-measure bars.
//  (b)-(d) Amazon: precision/recall/F-measure while the error rate varies
//          from 10% to 40%.
//
// As in the paper, DIME reports the best scrollbar position, CR the best
// of three termination thresholds (matched to this implementation's
// similarity scale; the paper used {0.5, 0.6, 0.7}), and SVM is trained on
// pairwise-similarity examples from separate training groups.

#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/cr.h"
#include "src/baselines/svm.h"
#include "src/common/logging.h"
#include "src/core/dime_plus.h"
#include "src/datagen/amazon_gen.h"
#include "src/datagen/scholar_gen.h"
#include "src/repro/experiments.h"

namespace dime {
namespace {

using bench::BestPrefix;
using bench::PrintPrf;
using bench::PrintTitle;
using bench::QuickMode;

void RunScholar() {
  PrintTitle("Fig. 6(a)  Google Scholar: DIME vs CR vs SVM");
  ScholarExperiment setup = MakeScholarExperiment();
  const size_t num_groups = QuickMode() ? 5 : 20;
  const size_t pubs = QuickMode() ? 120 : 320;

  // Training groups for SVM (entities disjoint from the test groups).
  ScholarGenOptions gen;
  gen.num_correct = pubs;
  std::vector<Group> train_groups;
  for (uint64_t s = 0; s < 3; ++s) {
    gen.seed = 900 + s;
    train_groups.push_back(
        GenerateScholarGroup("Trainer " + std::to_string(s), gen));
  }
  std::vector<LabeledPair> train = ComputeFeatures(
      train_groups, SampleExamplePairs(train_groups, 80, 70, 7),
      setup.features, setup.context);
  LinearSvm svm;
  DIME_CHECK(svm.Train(train, SvmOptions{}).ok());

  std::vector<Prf> dime, cr, svm_prf;
  for (size_t i = 0; i < num_groups; ++i) {
    gen.seed = 100 + i;
    Group group = GenerateScholarGroup("Scholar " + std::to_string(i), gen);
    DimeResult r =
        RunDimePlus(group, setup.positive, setup.negative, setup.context);
    dime.push_back(BestPrefix(group, r));
    cr.push_back(EvaluateFlagged(
        group,
        RunCrBestThreshold(group, setup.cr, setup.cr.candidate_thresholds)
            .flagged));
    svm_prf.push_back(EvaluateFlagged(
        group, SvmDiscover(group, setup.features, svm, setup.context)));
  }
  PrintPrf("DIME (best scrollbar)", MacroAverage(dime));
  PrintPrf("CR   (best threshold)", MacroAverage(cr));
  PrintPrf("SVM", MacroAverage(svm_prf));
}

void RunAmazon() {
  PrintTitle("Fig. 6(b-d)  Amazon: accuracy vs error rate");
  const size_t products = QuickMode() ? 80 : 200;
  const std::vector<int> categories =
      QuickMode() ? std::vector<int>{0, 6, 14}
                  : std::vector<int>{0, 4, 6, 10, 14, 18};

  std::printf("%-6s | %-22s | %-22s | %-22s\n", "e%", "DIME (P/R/F)",
              "CR (P/R/F)", "SVM (P/R/F)");
  bench::PrintRule();
  for (double e : {0.1, 0.2, 0.3, 0.4}) {
    AmazonGenOptions gen;
    gen.num_correct = products;
    gen.error_rate = e;
    std::vector<Group> groups;
    for (int c : categories) {
      gen.seed = 40 + c;
      groups.push_back(GenerateAmazonGroup(c, gen));
    }

    // SVM training corpus at the same error rate, different seeds.
    std::vector<Group> train_groups;
    for (int c : {2, 8, 16}) {
      gen.seed = 800 + c;
      train_groups.push_back(GenerateAmazonGroup(c, gen));
    }

    // The theme hierarchy is an unsupervised resource: fit it on all
    // available descriptions (training + test), like the paper's LDA.
    std::vector<Group> corpus = groups;
    corpus.insert(corpus.end(), train_groups.begin(), train_groups.end());
    AmazonSetup setup = MakeAmazonSetup(corpus);
    std::vector<LabeledPair> train = ComputeFeatures(
        train_groups, SampleExamplePairs(train_groups, 80, 80, 9),
        setup.features, setup.context);
    LinearSvm svm;
    DIME_CHECK(svm.Train(train, SvmOptions{}).ok());

    std::vector<Prf> dime, cr, svm_prf;
    for (const Group& group : groups) {
      DimeResult r =
          RunDimePlus(group, setup.positive, setup.negative, setup.context);
      dime.push_back(BestPrefix(group, r));
      cr.push_back(EvaluateFlagged(
          group,
          RunCrBestThreshold(group, setup.cr, setup.cr.candidate_thresholds)
            .flagged));
      svm_prf.push_back(EvaluateFlagged(
          group, SvmDiscover(group, setup.features, svm, setup.context)));
    }
    Prf d = MacroAverage(dime), c = MacroAverage(cr), s = MacroAverage(svm_prf);
    std::printf("%-6.0f | %.2f / %.2f / %.2f     | %.2f / %.2f / %.2f     | "
                "%.2f / %.2f / %.2f\n",
                e * 100, d.precision, d.recall, d.f1, c.precision, c.recall,
                c.f1, s.precision, s.recall, s.f1);
  }
}

}  // namespace
}  // namespace dime

int main() {
  dime::RunScholar();
  std::printf("\n");
  dime::RunAmazon();
  return 0;
}
