#ifndef DIME_DATAGEN_PRESETS_H_
#define DIME_DATAGEN_PRESETS_H_

#include <string_view>
#include <vector>

#include "src/baselines/cr.h"
#include "src/baselines/sifi.h"
#include "src/common/status.h"
#include "src/core/corpus.h"
#include "src/core/preprocess.h"
#include "src/rulegen/candidates.h"
#include "src/rules/rule.h"
#include "src/topicmodel/hierarchy_builder.h"

/// \file presets.h
/// Ready-made experiment configurations: the rule sets of Section VI-A,
/// the evaluation contexts (ontologies + mapping modes), the feature
/// libraries used by rule generation and the ML baselines, the CR
/// configurations, and the SIFI expert structures. Benches and examples
/// build on these instead of re-declaring rules.

namespace dime {

/// Configuration for Google-Scholar-style groups.
struct ScholarSetup {
  Schema schema;
  /// context.ontologies[0] = venue tree (VenueOntology()), exact-name
  /// mapping (Venue); context.ontologies[1] = the same tree, keyword
  /// mapping (Title).
  DimeContext context;
  /// phi_1+: overlap(Authors) >= 2
  /// phi_2+: overlap(Authors) >= 1 ^ ontology(Venue) >= 0.75
  std::vector<PositiveRule> positive;
  /// NR1: overlap(Authors) <= 0
  /// NR2: overlap(Authors) <= 1 ^ ontology(Venue) <= 0.25
  /// NR3: overlap(Authors) <= 1 ^ ontology(Title) <= 0.7
  ///
  /// (The paper states NR3 with threshold 0.25; our title hierarchy maps
  /// titles to depth-3 subfield nodes where "different subfield" is 2/3,
  /// so the equivalent cut sits at 0.7 — see EXPERIMENTS.md.)
  std::vector<NegativeRule> negative;
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

ScholarSetup MakeScholarSetup();

/// The corpus `dime_server --demo --demo-pages <pages>` serves and
/// `dime_snapshot build --demo` writes: MakeScholarSetup()'s rules and
/// venue tree over Scholar groups of ~130 entities named
/// page_0..page_{pages-1}.
Corpus MakeDemoCorpus(size_t pages);

/// The corpus `dime_snapshot build --preset <name>` writes: "scholar-2999"
/// is the Fig. 9(a) 3000-tuple Scholar page under MakeScholarSetup();
/// "amazon-10000" the Fig. 9(b) 10000-tuple Amazon category under
/// MakeAmazonSetup() fitted on that category. Any other name is
/// INVALID_ARGUMENT.
StatusOr<Corpus> MakePresetCorpus(std::string_view name);

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
  /// Extended library for the rule-generation study (see ScholarSetup).
  std::vector<FeatureSpec> rulegen_features;
  CrConfig cr;
  SifiStructure sifi;
};

AmazonSetup MakeAmazonSetup(const std::vector<Group>& corpus,
                            const HierarchyOptions& hierarchy = {});

/// Samples training example pairs from groups with ground truth: positive
/// examples pair two correct entities, negative examples pair an error
/// with a correct entity ("mis-categorized entities can be paired with any
/// other correctly categorized entities as good examples", Section V).
std::vector<ExamplePair> SampleExamplePairs(const std::vector<Group>& groups,
                                            size_t positives_per_group,
                                            size_t negatives_per_group,
                                            uint64_t seed);

}  // namespace dime

#endif  // DIME_DATAGEN_PRESETS_H_
