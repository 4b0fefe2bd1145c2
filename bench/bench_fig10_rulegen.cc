// Figure 10: rule-generation quality — k-fold cross-validated F-measure
// of DIME-Rule (the greedy generator of Section V-C) against the
// DecisionTree and SIFI baselines, on Scholar and Amazon example pairs,
// for fold counts 2..10. The shape to reproduce: DIME-Rule > SIFI >
// DecisionTree, each roughly flat across fold counts.

#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/decision_tree.h"
#include "src/baselines/sifi.h"
#include "src/datagen/amazon_gen.h"
#include "src/datagen/scholar_gen.h"
#include "src/repro/experiments.h"
#include "src/rulegen/crossval.h"

namespace dime {
namespace {

void RunTable(const std::string& title, const std::vector<LabeledPair>& pairs,
              size_t num_specs, const SifiStructure& sifi) {
  bench::PrintTitle(title);
  std::printf("(%zu example pairs)\n", pairs.size());
  std::printf("%-7s | %9s %9s %9s\n", "#folds", "DIME-Rule", "SIFI",
              "DecTree");
  bench::PrintRule();
  std::vector<int> folds = bench::QuickMode()
                               ? std::vector<int>{2, 5, 10}
                               : std::vector<int>{2, 3, 4, 5, 6, 7, 8, 9, 10};
  DecisionTreeOptions tree_options;
  tree_options.max_depth = 4;  // the paper's setting
  for (int k : folds) {
    double ours =
        KFoldCrossValidate(pairs, k, MakeDimeRuleLearner(num_specs)).mean_f1;
    double sifi_f1 =
        KFoldCrossValidate(pairs, k, MakeSifiLearner(sifi)).mean_f1;
    double tree =
        KFoldCrossValidate(pairs, k, MakeDecisionTreeLearner(tree_options))
            .mean_f1;
    std::printf("%-7d | %9.3f %9.3f %9.3f\n", k, ours, sifi_f1, tree);
  }
}

}  // namespace
}  // namespace dime

int main() {
  using namespace dime;

  // Scholar: 229 positive / 201 negative examples as in the paper.
  {
    ScholarExperiment setup = MakeScholarExperiment();
    ScholarGenOptions gen;
    gen.num_correct = bench::QuickMode() ? 100 : 200;
    std::vector<Group> groups;
    for (uint64_t s = 0; s < 4; ++s) {
      gen.seed = 600 + s;
      groups.push_back(
          GenerateScholarGroup("Trainer " + std::to_string(s), gen));
    }
    std::vector<ExamplePair> examples = SampleExamplePairs(groups, 58, 51, 3);
    std::vector<LabeledPair> pairs =
        ComputeFeatures(groups, examples, setup.rulegen_features, setup.context);
    RunTable("Fig. 10(a)  Scholar: rule-generation F-measure vs #folds",
             pairs, setup.rulegen_features.size(), setup.sifi);
  }

  std::printf("\n");

  // Amazon: 247 positive / 245 negative examples as in the paper.
  {
    AmazonGenOptions gen;
    gen.num_correct = bench::QuickMode() ? 80 : 150;
    gen.error_rate = 0.25;
    // Confusable examples: heavy cross-category contamination and more
    // history-less products blur the pair feature space, as on real data.
    gen.contamination_rate = 0.6;
    gen.sparse_rate = 0.08;
    std::vector<Group> groups;
    int i = 0;
    for (int c : {0, 6, 10, 14}) {
      gen.seed = 700 + (i++);
      groups.push_back(GenerateAmazonGroup(c, gen));
    }
    AmazonSetup setup = MakeAmazonSetup(groups);
    std::vector<ExamplePair> examples = SampleExamplePairs(groups, 62, 62, 5);
    std::vector<LabeledPair> pairs =
        ComputeFeatures(groups, examples, setup.rulegen_features, setup.context);
    RunTable("Fig. 10(b)  Amazon: rule-generation F-measure vs #folds",
             pairs, setup.rulegen_features.size(), setup.sifi);
  }
  return 0;
}
