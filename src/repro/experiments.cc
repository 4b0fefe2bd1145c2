#include "src/repro/experiments.h"

#include <memory>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/datagen/amazon_gen.h"
#include "src/datagen/scholar_gen.h"
#include "src/text/tokenizer.h"

namespace dime {
namespace {

/// `func` over attribute `attr` tokenized by `mode`; an ontology function
/// maps onto context.ontologies[ontology_index].
FeatureSpec Feature(int attr, SimFunc func, TokenMode mode,
                    int ontology_index = 0) {
  FeatureSpec s;
  s.attr = attr;
  s.func = func;
  s.mode = mode;
  s.ontology_index = ontology_index;
  return s;
}

/// A preset's rules and ontologies (a ScholarSetup or an AmazonSetup)
/// over `groups`.
template <typename Setup>
Corpus CorpusOf(Setup setup, std::vector<Group> groups) {
  return Corpus{std::move(setup.schema), std::move(setup.positive),
                std::move(setup.negative), std::move(setup.context),
                std::move(groups)};
}

}  // namespace

ScholarExperiment MakeScholarExperiment() {
  ScholarExperiment setup;
  static_cast<ScholarSetup&>(setup) = MakeScholarSetup();

  setup.features = {
      Feature(kScholarAuthors, SimFunc::kOverlap, TokenMode::kValueList),
      Feature(kScholarAuthors, SimFunc::kJaccard, TokenMode::kValueList),
      Feature(kScholarTitle, SimFunc::kJaccard, TokenMode::kWords),
      Feature(kScholarVenue, SimFunc::kOntology, TokenMode::kValueList),
      Feature(kScholarTitle, SimFunc::kOntology, TokenMode::kWords, 1),
      Feature(kScholarPublisher, SimFunc::kJaccard, TokenMode::kWords),
  };

  setup.rulegen_features = setup.features;
  // Noise features (Date and Pages carry no categorization signal): part
  // of what separates learners that resist overfitting from those that
  // don't (Fig. 10's DecisionTree discussion).
  setup.rulegen_features.insert(
      setup.rulegen_features.end(),
      {
          Feature(kScholarDate, SimFunc::kJaccard, TokenMode::kWords),
          Feature(kScholarPages, SimFunc::kJaccard, TokenMode::kWords),
          Feature(kScholarAuthors, SimFunc::kDice, TokenMode::kValueList),
          Feature(kScholarAuthors, SimFunc::kCosine, TokenMode::kValueList),
          Feature(kScholarTitle, SimFunc::kOverlap, TokenMode::kWords),
          Feature(kScholarTitle, SimFunc::kDice, TokenMode::kWords),
          Feature(kScholarTitle, SimFunc::kCosine, TokenMode::kWords),
          Feature(kScholarTitle, SimFunc::kEditSim, TokenMode::kValueList),
          Feature(kScholarVenue, SimFunc::kJaccard, TokenMode::kWords),
          Feature(kScholarVenue, SimFunc::kEditSim, TokenMode::kValueList),
          Feature(kScholarPages, SimFunc::kEditSim, TokenMode::kValueList),
          Feature(kScholarDate, SimFunc::kEditSim, TokenMode::kValueList),
      });

  setup.cr.attribute_attrs = {kScholarTitle, kScholarVenue};
  setup.cr.reference_attrs = {kScholarAuthors};
  setup.cr.alpha = 0.4;
  setup.cr.candidate_thresholds = {0.06, 0.1, 0.15};

  // SIFI expert structure over the feature library above:
  // match iff ov(Authors) >= t0, or ov(Authors) >= t1 ^ on(Venue) >= t2.
  setup.sifi.conjunctions = {{0}, {0, 3}};
  return setup;
}

AmazonSetup MakeAmazonSetup(const std::vector<Group>& corpus,
                            const HierarchyOptions& hierarchy) {
  AmazonSetup setup;
  setup.schema = AmazonSchema();

  // Fit the LDA theme hierarchy on every description in the corpus.
  std::vector<std::vector<std::string>> docs;
  for (const Group& g : corpus) {
    for (const Entity& e : g.entities) {
      std::string joined;
      for (const std::string& v : e.value(kAmazonDescription)) {
        joined += v;
        joined.push_back(' ');
      }
      docs.push_back(WordTokenize(joined));
    }
  }
  setup.context.ontologies.push_back(OntologyRef{
      std::make_shared<const Ontology>(BuildThemeHierarchy(docs, hierarchy)),
      MapMode::kKeyword});

  setup.positive.resize(3);
  DIME_CHECK(ParsePositiveRule(
      "overlap(Also_bought) >= 2 ^ overlap(Also_viewed) >= 2", setup.schema,
      &setup.positive[0]));
  DIME_CHECK(ParsePositiveRule(
      "overlap(Bought_together) >= 1 ^ ontology(Description:words) >= 0.75",
      setup.schema, &setup.positive[1]));
  DIME_CHECK(ParsePositiveRule(
      "overlap(Buy_after_viewing) >= 1 ^ ontology(Description:words) >= 0.75",
      setup.schema, &setup.positive[2]));

  setup.negative.resize(2);
  DIME_CHECK(ParseNegativeRule(
      "overlap(Also_bought) <= 0 ^ ontology(Description:words) <= 0.5",
      setup.schema, &setup.negative[0]));
  DIME_CHECK(ParseNegativeRule(
      "overlap(Also_viewed) <= 0 ^ ontology(Description:words) <= 0.5",
      setup.schema, &setup.negative[1]));

  setup.features = {
      Feature(kAmazonAlsoBought, SimFunc::kOverlap, TokenMode::kValueList),
      Feature(kAmazonAlsoViewed, SimFunc::kOverlap, TokenMode::kValueList),
      Feature(kAmazonBoughtTogether, SimFunc::kOverlap, TokenMode::kValueList),
      Feature(kAmazonBuyAfterViewing, SimFunc::kOverlap,
              TokenMode::kValueList),
      Feature(kAmazonDescription, SimFunc::kOntology, TokenMode::kWords),
      Feature(kAmazonTitle, SimFunc::kJaccard, TokenMode::kWords),
  };

  setup.rulegen_features = setup.features;
  // Noise feature: Brand is uncorrelated with the category.
  setup.rulegen_features.insert(
      setup.rulegen_features.end(),
      {
          Feature(kAmazonBrand, SimFunc::kJaccard, TokenMode::kWords),
          Feature(kAmazonAlsoBought, SimFunc::kJaccard, TokenMode::kValueList),
          Feature(kAmazonAlsoViewed, SimFunc::kJaccard, TokenMode::kValueList),
          Feature(kAmazonBoughtTogether, SimFunc::kJaccard,
                  TokenMode::kValueList),
          Feature(kAmazonBuyAfterViewing, SimFunc::kJaccard,
                  TokenMode::kValueList),
          Feature(kAmazonDescription, SimFunc::kJaccard, TokenMode::kWords),
          Feature(kAmazonDescription, SimFunc::kDice, TokenMode::kWords),
          Feature(kAmazonDescription, SimFunc::kCosine, TokenMode::kWords),
          Feature(kAmazonTitle, SimFunc::kDice, TokenMode::kWords),
          Feature(kAmazonTitle, SimFunc::kEditSim, TokenMode::kValueList),
          Feature(kAmazonBrand, SimFunc::kEditSim, TokenMode::kValueList),
      });

  setup.cr.attribute_attrs = {kAmazonTitle, kAmazonDescription};
  setup.cr.reference_attrs = {kAmazonAlsoBought, kAmazonAlsoViewed};
  setup.cr.alpha = 0.4;
  setup.cr.candidate_thresholds = {0.08, 0.15, 0.2};

  // match iff ov(Also_bought) >= t0 ^ ov(Also_viewed) >= t1,
  //        or ov(Bought_together) >= t2 ^ on(Description) >= t3.
  setup.sifi.conjunctions = {{0, 1}, {2, 4}};
  return setup;
}

StatusOr<Corpus> MakePresetCorpus(std::string_view name) {
  if (name == "scholar-2999") {
    ScholarGenOptions gen;
    gen.num_correct = 2982;
    gen.coauthor_pool = 190;
    gen.seed = 6000;
    std::vector<Group> groups;
    groups.push_back(GenerateScholarGroup("Big Page", gen));
    return CorpusOf(MakeScholarSetup(), std::move(groups));
  }
  if (name == "amazon-10000") {
    AmazonGenOptions gen;
    gen.error_rate = 0.4;
    gen.num_correct = 6000;
    gen.window = 12;
    gen.seed = 14000;
    std::vector<Group> groups{GenerateAmazonGroup(5, gen)};
    AmazonSetup setup = MakeAmazonSetup(groups);
    return CorpusOf(std::move(setup), std::move(groups));
  }
  return InvalidArgumentError("unknown preset '" + std::string(name) +
                              "' (scholar-2999 or amazon-10000)");
}

std::vector<ExamplePair> SampleExamplePairs(const std::vector<Group>& groups,
                                            size_t positives_per_group,
                                            size_t negatives_per_group,
                                            uint64_t seed) {
  Random rng(seed);
  std::vector<ExamplePair> examples;
  for (size_t g = 0; g < groups.size(); ++g) {
    const Group& group = groups[g];
    DIME_CHECK(group.has_truth());
    std::vector<int> correct, errors;
    for (size_t e = 0; e < group.size(); ++e) {
      (group.truth[e] ? errors : correct).push_back(static_cast<int>(e));
    }
    if (correct.size() >= 2) {
      for (size_t i = 0; i < positives_per_group; ++i) {
        int a = correct[rng.Uniform(correct.size())];
        int b = correct[rng.Uniform(correct.size())];
        if (a == b) continue;
        examples.push_back(
            ExamplePair{static_cast<int>(g), a, b, /*positive=*/true});
      }
    }
    if (!errors.empty() && !correct.empty()) {
      for (size_t i = 0; i < negatives_per_group; ++i) {
        int a = errors[rng.Uniform(errors.size())];
        int b = correct[rng.Uniform(correct.size())];
        examples.push_back(
            ExamplePair{static_cast<int>(g), a, b, /*positive=*/false});
      }
    }
  }
  return examples;
}

}  // namespace dime
