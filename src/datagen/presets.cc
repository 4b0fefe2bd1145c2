#include "src/datagen/presets.h"

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/datagen/amazon_gen.h"
#include "src/datagen/scholar_gen.h"
#include "src/ontology/builtin.h"
#include "src/text/tokenizer.h"

namespace dime {

ScholarSetup MakeScholarSetup() {
  ScholarSetup setup;
  setup.schema = ScholarSchema();
  setup.context.ontologies.push_back(
      OntologyRef{VenueOntology(), MapMode::kExactName});
  setup.context.ontologies.push_back(
      OntologyRef{VenueOntology(), MapMode::kKeyword});

  setup.positive.resize(2);
  DIME_CHECK(ParsePositiveRule("overlap(Authors) >= 2", setup.schema,
                               &setup.positive[0]));
  DIME_CHECK(ParsePositiveRule(
      "overlap(Authors) >= 1 ^ ontology(Venue) >= 0.75", setup.schema,
      &setup.positive[1]));

  setup.negative.resize(3);
  DIME_CHECK(ParseNegativeRule("overlap(Authors) <= 0", setup.schema,
                               &setup.negative[0]));
  DIME_CHECK(ParseNegativeRule(
      "overlap(Authors) <= 1 ^ ontology(Venue) <= 0.25", setup.schema,
      &setup.negative[1]));
  DIME_CHECK(ParseNegativeRule(
      "overlap(Authors) <= 1 ^ ontology(Title:words@1) <= 0.7", setup.schema,
      &setup.negative[2]));

  auto feature = [&](int attr, SimFunc func, TokenMode mode,
                     int ontology_index) {
    FeatureSpec s;
    s.attr = attr;
    s.func = func;
    s.mode = mode;
    s.ontology_index = ontology_index;
    setup.features.push_back(s);
  };
  feature(kScholarAuthors, SimFunc::kOverlap, TokenMode::kValueList, 0);
  feature(kScholarAuthors, SimFunc::kJaccard, TokenMode::kValueList, 0);
  feature(kScholarTitle, SimFunc::kJaccard, TokenMode::kWords, 0);
  feature(kScholarVenue, SimFunc::kOntology, TokenMode::kValueList, 0);
  feature(kScholarTitle, SimFunc::kOntology, TokenMode::kWords, 1);
  feature(kScholarPublisher, SimFunc::kJaccard, TokenMode::kWords, 0);

  setup.rulegen_features = setup.features;
  auto rg = [&](int attr, SimFunc func, TokenMode mode, int ontology_index) {
    FeatureSpec s;
    s.attr = attr;
    s.func = func;
    s.mode = mode;
    s.ontology_index = ontology_index;
    setup.rulegen_features.push_back(s);
  };
  // Noise features (Date and Pages carry no categorization signal): part
  // of what separates learners that resist overfitting from those that
  // don't (Fig. 10's DecisionTree discussion).
  rg(kScholarDate, SimFunc::kJaccard, TokenMode::kWords, 0);
  rg(kScholarPages, SimFunc::kJaccard, TokenMode::kWords, 0);
  rg(kScholarAuthors, SimFunc::kDice, TokenMode::kValueList, 0);
  rg(kScholarAuthors, SimFunc::kCosine, TokenMode::kValueList, 0);
  rg(kScholarTitle, SimFunc::kOverlap, TokenMode::kWords, 0);
  rg(kScholarTitle, SimFunc::kDice, TokenMode::kWords, 0);
  rg(kScholarTitle, SimFunc::kCosine, TokenMode::kWords, 0);
  rg(kScholarTitle, SimFunc::kEditSim, TokenMode::kValueList, 0);
  rg(kScholarVenue, SimFunc::kJaccard, TokenMode::kWords, 0);
  rg(kScholarVenue, SimFunc::kEditSim, TokenMode::kValueList, 0);
  rg(kScholarPages, SimFunc::kEditSim, TokenMode::kValueList, 0);
  rg(kScholarDate, SimFunc::kEditSim, TokenMode::kValueList, 0);

  setup.cr.attribute_attrs = {kScholarTitle, kScholarVenue};
  setup.cr.reference_attrs = {kScholarAuthors};
  setup.cr.alpha = 0.4;
  setup.cr.candidate_thresholds = {0.06, 0.1, 0.15};

  // SIFI expert structure over the feature library above:
  // match iff ov(Authors) >= t0, or ov(Authors) >= t1 ^ on(Venue) >= t2.
  setup.sifi.conjunctions = {{0}, {0, 3}};
  return setup;
}

namespace {

/// A preset's rules and ontologies (a ScholarSetup or an AmazonSetup)
/// over `groups`.
template <typename Setup>
Corpus CorpusOf(Setup setup, std::vector<Group> groups) {
  return Corpus{std::move(setup.schema), std::move(setup.positive),
                std::move(setup.negative), std::move(setup.context),
                std::move(groups)};
}

}  // namespace

Corpus MakeDemoCorpus(size_t pages) {
  std::vector<Group> groups;
  groups.reserve(pages);
  for (size_t i = 0; i < pages; ++i) {
    ScholarGenOptions gen;
    gen.num_correct = 120;
    gen.seed = 1000 + i * 17;
    gen.garbage_pubs = 3 + i % 4;
    gen.chem_namesake_pubs = 2 + i % 3;
    Group page = GenerateScholarGroup("Demo Owner " + std::to_string(i), gen);
    page.name = "page_" + std::to_string(i);
    groups.push_back(std::move(page));
  }
  return CorpusOf(MakeScholarSetup(), std::move(groups));
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

  auto feature = [&](int attr, SimFunc func, TokenMode mode,
                     int ontology_index) {
    FeatureSpec s;
    s.attr = attr;
    s.func = func;
    s.mode = mode;
    s.ontology_index = ontology_index;
    setup.features.push_back(s);
  };
  feature(kAmazonAlsoBought, SimFunc::kOverlap, TokenMode::kValueList, 0);
  feature(kAmazonAlsoViewed, SimFunc::kOverlap, TokenMode::kValueList, 0);
  feature(kAmazonBoughtTogether, SimFunc::kOverlap, TokenMode::kValueList, 0);
  feature(kAmazonBuyAfterViewing, SimFunc::kOverlap, TokenMode::kValueList, 0);
  feature(kAmazonDescription, SimFunc::kOntology, TokenMode::kWords, 0);
  feature(kAmazonTitle, SimFunc::kJaccard, TokenMode::kWords, 0);

  setup.rulegen_features = setup.features;
  auto rg = [&](int attr, SimFunc func, TokenMode mode, int ontology_index) {
    FeatureSpec s;
    s.attr = attr;
    s.func = func;
    s.mode = mode;
    s.ontology_index = ontology_index;
    setup.rulegen_features.push_back(s);
  };
  // Noise feature: Brand is uncorrelated with the category.
  rg(kAmazonBrand, SimFunc::kJaccard, TokenMode::kWords, 0);
  rg(kAmazonAlsoBought, SimFunc::kJaccard, TokenMode::kValueList, 0);
  rg(kAmazonAlsoViewed, SimFunc::kJaccard, TokenMode::kValueList, 0);
  rg(kAmazonBoughtTogether, SimFunc::kJaccard, TokenMode::kValueList, 0);
  rg(kAmazonBuyAfterViewing, SimFunc::kJaccard, TokenMode::kValueList, 0);
  rg(kAmazonDescription, SimFunc::kJaccard, TokenMode::kWords, 0);
  rg(kAmazonDescription, SimFunc::kDice, TokenMode::kWords, 0);
  rg(kAmazonDescription, SimFunc::kCosine, TokenMode::kWords, 0);
  rg(kAmazonTitle, SimFunc::kDice, TokenMode::kWords, 0);
  rg(kAmazonTitle, SimFunc::kEditSim, TokenMode::kValueList, 0);
  rg(kAmazonBrand, SimFunc::kEditSim, TokenMode::kValueList, 0);

  setup.cr.attribute_attrs = {kAmazonTitle, kAmazonDescription};
  setup.cr.reference_attrs = {kAmazonAlsoBought, kAmazonAlsoViewed};
  setup.cr.alpha = 0.4;
  setup.cr.candidate_thresholds = {0.08, 0.15, 0.2};

  // match iff ov(Also_bought) >= t0 ^ ov(Also_viewed) >= t1,
  //        or ov(Bought_together) >= t2 ^ on(Description) >= t3.
  setup.sifi.conjunctions = {{0, 1}, {2, 4}};
  return setup;
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
