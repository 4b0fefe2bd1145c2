// Quickstart: the running example of the paper (Fig. 1 / Example 2).
//
// Builds Nan Tang's six-entity Google Scholar group, applies the positive
// rules phi_1+/phi_2+ and the negative rules phi_1-/phi_2-, and prints the
// partitions, the pivot, and the scrollbar of discovered mis-categorized
// entities. Expected outcome: partitions {e1,e2,e3,e5}, {e4}, {e6}; e4 is
// discovered by phi_1- (no author overlap) and e6 by phi_2- (one common
// author, venue in a different field).

#include <iostream>
#include <memory>

#include "src/core/dime.h"
#include "src/ontology/builtin.h"
#include "src/rules/rule.h"

namespace {

dime::Entity MakePub(const std::string& id, const std::string& title,
                     std::vector<std::string> authors,
                     const std::string& venue) {
  dime::Entity e;
  e.id = id;
  e.values = {{title}, std::move(authors), {venue}};
  return e;
}

}  // namespace

int main() {
  using namespace dime;

  Group group;
  group.name = "Nan Tang";
  group.schema = Schema({"Title", "Authors", "Venue"});
  group.entities = {
      MakePub("e1",
              "KATARA: a data cleaning system powered by knowledge bases and "
              "crowdsourcing",
              {"Xu Chu", "John Morcos", "Ihab F. Ilyas", "Mourad Ouzzani",
               "Paolo Papotti", "Nan Tang"},
              "SIGMOD 2015"),
      MakePub("e2", "Hierarchical indexing approach to support xpath queries",
              {"Nan Tang", "Jeffrey Xu Yu", "M. Tamer Ozsu", "Kam-Fai Wong"},
              "ICDE 2008"),
      MakePub("e3", "NADEEF: a generalized data cleaning system",
              {"Amr Ebaid", "Ahmed Elmagarmid", "Ihab F. Ilyas", "Nan Tang"},
              "VLDB 2013"),
      MakePub("e4",
              "Discriminative bi-term topic model for social news clustering",
              {"Yunqing Xia", "NJ Tang", "Amir Hussain", "Erik Cambria"},
              "SIGIR 2005"),
      MakePub("e5",
              "Win: an efficient data placement strategy for parallel xml "
              "databases",
              {"Nan Tang", "Guoren Wang", "Jeffrey Xu Yu"},
              "ICPADS 2005"),
      MakePub("e6",
              "Extractive and oxidative desulfurization of model oil in "
              "polyethylene glycol",
              {"Jianlong Wang", "Rijie Zhao", "Baixin Han", "Nan Tang",
               "Kaixi Li"},
              "RSC Advances 1905"),
  };

  // The miniature Fig. 4 ontology: venues at depth 4 under subfield and
  // broad-field nodes, so SIGMOD~VLDB = 0.75 and SIGMOD~RSC Advances = 0.25.
  auto venues = std::make_shared<Ontology>(BuildFig4Ontology());
  // SIGIR is not in the miniature tree; add it under Computer Science so
  // e4's venue maps (as in the paper, where SIGIR is a CS venue).
  int cs = venues->FindByName("Computer Science");
  int ir = venues->AddNode("Information Retrieval", cs);
  venues->AddNode("SIGIR", ir);

  DimeContext context;
  context.ontologies.push_back(OntologyRef{venues, MapMode::kExactName});

  std::vector<PositiveRule> positive(2);
  std::vector<NegativeRule> negative(2);
  ParsePositiveRule("overlap(Authors) >= 2", group.schema, &positive[0]);
  ParsePositiveRule("overlap(Authors) >= 1 ^ ontology(Venue) >= 0.75",
                    group.schema, &positive[1]);
  ParseNegativeRule("overlap(Authors) <= 0", group.schema, &negative[0]);
  ParseNegativeRule("overlap(Authors) <= 1 ^ ontology(Venue) <= 0.25",
                    group.schema, &negative[1]);

  std::cout << "Positive rules (applied as a disjunction):\n";
  for (const PositiveRule& r : positive) {
    std::cout << "  " << r.ToString(group.schema) << "\n";
  }
  std::cout << "Negative rules (applied in sequence - the scrollbar):\n";
  for (const NegativeRule& r : negative) {
    std::cout << "  " << r.ToString(group.schema) << "\n";
  }

  DimeResult result = RunDime(group, positive, negative, context);

  std::cout << "\nStep 1: disjoint partitions\n";
  for (size_t p = 0; p < result.partitions.size(); ++p) {
    std::cout << "  P" << p + 1 << ": {";
    for (size_t i = 0; i < result.partitions[p].size(); ++i) {
      if (i > 0) std::cout << ", ";
      std::cout << group.entities[result.partitions[p][i]].id;
    }
    std::cout << "}" << (static_cast<int>(p) == result.pivot ? "  <- pivot" : "")
              << "\n";
  }

  std::cout << "\nStep 3: scrollbar over negative rules\n";
  for (size_t k = 0; k < result.flagged_by_prefix.size(); ++k) {
    std::cout << "  after rule " << k + 1 << ": mis-categorized = {";
    for (size_t i = 0; i < result.flagged_by_prefix[k].size(); ++i) {
      if (i > 0) std::cout << ", ";
      std::cout << group.entities[result.flagged_by_prefix[k][i]].id;
    }
    std::cout << "}\n";
  }
  return 0;
}
