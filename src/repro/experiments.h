#ifndef DIME_REPRO_EXPERIMENTS_H_
#define DIME_REPRO_EXPERIMENTS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/baselines/cr.h"
#include "src/baselines/sifi.h"
#include "src/common/status.h"
#include "src/core/corpus.h"
#include "src/datagen/presets.h"
#include "src/rulegen/candidates.h"
#include "src/topicmodel/hierarchy_builder.h"

/// \file experiments.h
/// The experiment half of the Section VI-A configurations: the feature
/// libraries used by rule generation and the ML baselines, the CR
/// configurations, the SIFI expert structures, the Amazon setup with its
/// LDA theme tree, the Fig. 9 benchmark corpora and example-pair
/// sampling. Benches, examples and tests build on these instead of
/// re-declaring rules; the serving half is src/datagen/presets.h.

namespace dime {

/// MakeScholarSetup()'s rules and ontologies plus what the experiments
/// learn from and compare against.
struct ScholarExperiment : ScholarSetup {
  /// Feature library for rule generation / SVM / DecisionTree / SIFI.
  std::vector<FeatureSpec> features;
  /// Extended library for the rule-generation study (Fig. 10): every
  /// set-based function on every plausible attribute plus character-based
  /// similarity. The larger option space is what separates the learners —
  /// "DecisionTree failed to find the optimal similarity functions ...
  /// when there were a lot of options" (Exp-6).
  std::vector<FeatureSpec> rulegen_features;
  CrConfig cr;
  SifiStructure sifi;
};

ScholarExperiment MakeScholarExperiment();

/// Configuration for Amazon-style groups. The Description ontology is an
/// LDA theme hierarchy fitted on the given corpus (Section VI-A:
/// "we utilized LDA to learn a theme hierarchy structure").
struct AmazonSetup {
  Schema schema;
  /// context.ontologies[0] = the fitted theme tree, keyword mapping
  /// (Description).
  DimeContext context;
  /// phi_3+: ov(Also_bought) >= 2 ^ ov(Also_viewed) >= 2
  /// phi_4+: ov(Bought_together) >= 1 ^ on(Description) >= 0.75
  /// phi_5+: ov(Buy_after_viewing) >= 1 ^ on(Description) >= 0.75
  std::vector<PositiveRule> positive;
  /// phi_4-: ov(Also_bought) <= 0 ^ on(Description) <= 0.5
  /// phi_5-: ov(Also_viewed) <= 0 ^ on(Description) <= 0.5
  std::vector<NegativeRule> negative;
  std::vector<FeatureSpec> features;
  /// Extended library for the rule-generation study (see
  /// ScholarExperiment).
  std::vector<FeatureSpec> rulegen_features;
  CrConfig cr;
  SifiStructure sifi;
};

AmazonSetup MakeAmazonSetup(const std::vector<Group>& corpus,
                            const HierarchyOptions& hierarchy = {});

/// The Fig. 9 benchmark corpora: "scholar-2999" is the Fig. 9(a)
/// 3000-tuple Scholar page under MakeScholarSetup(); "amazon-10000" the
/// Fig. 9(b) 10000-tuple Amazon category under MakeAmazonSetup() fitted on
/// that category. Any other name is INVALID_ARGUMENT.
StatusOr<Corpus> MakePresetCorpus(std::string_view name);

/// Samples training example pairs from groups with ground truth: positive
/// examples pair two correct entities, negative examples pair an error
/// with a correct entity ("mis-categorized entities can be paired with any
/// other correctly categorized entities as good examples", Section V).
std::vector<ExamplePair> SampleExamplePairs(const std::vector<Group>& groups,
                                            size_t positives_per_group,
                                            size_t negatives_per_group,
                                            uint64_t seed);

}  // namespace dime

#endif  // DIME_REPRO_EXPERIMENTS_H_
