#include "src/datagen/presets.h"

#include "src/common/logging.h"
#include "src/datagen/scholar_gen.h"
#include "src/ontology/builtin.h"

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
  return setup;
}

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
  ScholarSetup setup = MakeScholarSetup();
  return Corpus{std::move(setup.schema), std::move(setup.positive),
                std::move(setup.negative), std::move(setup.context),
                std::move(groups)};
}

}  // namespace dime
