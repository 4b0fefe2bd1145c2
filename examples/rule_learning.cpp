// Rule learning from examples (Section V end-to-end).
//
// Samples positive/negative example pairs from training pages, scores them
// with the feature library, learns positive rules (greedy, Section V-C)
// and negative rules (Section V-D), prints the learned rules in the
// paper's notation, cross-validates them against the DecisionTree and
// SIFI baselines (Fig. 10), and finally applies the learned rules to an
// unseen page.

#include <algorithm>
#include <cstdio>

#include "src/baselines/decision_tree.h"
#include "src/baselines/sifi.h"
#include "src/core/dime_plus.h"
#include "src/core/metrics.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/rulegen/crossval.h"
#include "src/rulegen/greedy.h"
#include "src/rules/rule_io.h"

int main() {
  using namespace dime;

  ScholarSetup setup = MakeScholarSetup();

  // Training pages and example pairs.
  ScholarGenOptions gen;
  gen.num_correct = 150;
  std::vector<Group> train_pages;
  for (uint64_t s = 0; s < 3; ++s) {
    gen.seed = 42 + s;
    train_pages.push_back(
        GenerateScholarGroup("Train Owner " + std::to_string(s), gen));
  }
  std::vector<ExamplePair> examples =
      SampleExamplePairs(train_pages, 150, 120, 9);
  std::vector<LabeledPair> pairs = ComputeFeatures(
      train_pages, examples, setup.features, setup.context);
  std::printf("Sampled %zu example pairs from %zu training pages.\n\n",
              pairs.size(), train_pages.size());

  // Learn rules. Like the paper's learned rules, each conjunction is kept
  // short (at most two predicates): long conjunctions fit the example
  // pairs better but transfer worse to whole unseen groups.
  GreedyOptions greedy;
  greedy.max_predicates_per_rule = 2;
  RuleGenResult pos =
      GreedyPositiveRules(pairs, setup.features.size(), greedy);
  RuleGenResult neg =
      GreedyNegativeRules(pairs, setup.features.size(), greedy);
  std::printf("Learned positive rules (objective %d):\n", pos.objective);
  std::vector<PositiveRule> positive;
  for (const LearnedRule& r : pos.rules) {
    positive.push_back(ToPositiveRule(r, setup.features));
    std::printf("  %s\n", positive.back().ToString(setup.schema).c_str());
  }
  std::printf("Learned negative rules, scrollbar order (objective %d):\n",
              neg.objective);
  std::vector<NegativeRule> negative;
  for (const LearnedRule& r : neg.rules) {
    negative.push_back(ToNegativeRule(r, setup.features));
    std::printf("  %s\n", negative.back().ToString(setup.schema).c_str());
  }

  // Cross-validate against the baselines (Fig. 10 in miniature).
  std::printf("\n5-fold cross-validated F-measure (match classification):\n");
  std::printf("  DIME-Rule:    %.3f\n",
              KFoldCrossValidate(pairs, 5,
                                 MakeDimeRuleLearner(setup.features.size()))
                  .mean_f1);
  std::printf("  SIFI:         %.3f\n",
              KFoldCrossValidate(pairs, 5, MakeSifiLearner(setup.sifi))
                  .mean_f1);
  std::printf("  DecisionTree: %.3f\n",
              KFoldCrossValidate(pairs, 5, MakeDecisionTreeLearner())
                  .mean_f1);

  // Pair-level objectives cannot see transitive amplification: one loose
  // positive rule can merge a whole error cluster into the pivot even
  // though it looked clean on example pairs. So, as a final step, select
  // the prefix of learned positive rules that works best at the *group*
  // level on a held-out validation page.
  gen.seed = 4100;
  Group validation_page = GenerateScholarGroup("Validation Owner", gen);
  size_t best_prefix = positive.size();
  double best_f1 = -1.0;
  for (size_t k = 1; k <= positive.size(); ++k) {
    std::vector<PositiveRule> prefix(positive.begin(),
                                     positive.begin() + k);
    DimeResult r =
        RunDimePlus(validation_page, prefix, negative, setup.context);
    double f1 = 0.0;
    for (const auto& flagged : r.flagged_by_prefix) {
      f1 = std::max(f1, EvaluateFlagged(validation_page, flagged).f1);
    }
    if (f1 > best_f1) {
      best_f1 = f1;
      best_prefix = k;
    }
  }
  positive.resize(best_prefix);
  std::printf(
      "\nValidation page keeps the first %zu positive rule(s) (F=%.2f "
      "there).\n",
      best_prefix, best_f1);

  // Persist the selected rule set so dime_cli --rules can replay it.
  std::string rules_path = "/tmp/dime_learned_rules.txt";
  const Status saved =
      SaveRuleSet(rules_path, setup.schema, positive, negative);
  if (saved.ok()) {
    std::printf("Saved the selected rule set to %s\n", rules_path.c_str());
  } else {
    std::printf("Could not save the rule set: %s\n", saved.ToString().c_str());
  }

  // Apply the learned rules to an unseen page.
  gen.seed = 4242;
  Group test_page = GenerateScholarGroup("Unseen Owner", gen);
  DimeResult result =
      RunDimePlus(test_page, positive, negative, setup.context);
  std::printf("\nUnseen page (%zu pubs, %zu errors): per scrollbar position\n",
              test_page.size(), test_page.TrueErrorIndices().size());
  for (size_t k = 0; k < result.flagged_by_prefix.size(); ++k) {
    Prf prf = EvaluateFlagged(test_page, result.flagged_by_prefix[k]);
    std::printf("  learned rules 1..%zu: flagged=%zu  P=%.2f R=%.2f F=%.2f\n",
                k + 1, result.flagged_by_prefix[k].size(), prf.precision,
                prf.recall, prf.f1);
  }
  return 0;
}
