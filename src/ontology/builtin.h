#ifndef DIME_ONTOLOGY_BUILTIN_H_
#define DIME_ONTOLOGY_BUILTIN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ontology/ontology.h"

/// \file builtin.h
/// The built-in venue ontology mirroring Google Scholar Metrics (Fig. 4 of
/// the paper): root -> broad field -> subfield -> venue, with root depth 1
/// and venues at depth 4. Two venues of the same subfield therefore have
/// ontology similarity 2*3/(4+4) = 0.75 (the threshold used by rule
/// phi_2+), venues of sibling subfields 0.5, and venues of different broad
/// fields 0.25.
///
/// Each subfield also registers topic keywords so that free text (paper
/// titles, product descriptions) can be mapped into the tree by keyword
/// voting — this powers the fon(Title) predicate of negative rule phi_3-.

namespace dime {

/// One subfield row of the vocabulary table.
struct ResearchArea {
  std::string field;                  ///< depth-2 node, e.g. "Computer Science"
  std::string subfield;               ///< depth-3 node, e.g. "Database"
  std::vector<std::string> venues;    ///< depth-4 leaves, e.g. "SIGMOD"
  std::vector<std::string> keywords;  ///< title/description topic words
};

/// The full vocabulary table backing the built-in ontology and the
/// synthetic data generators.
const std::vector<ResearchArea>& ResearchAreas();

/// The venue ontology (keywords registered on the subfield nodes), built
/// once and never destroyed: every OntologyRef to it shares this one.
const std::shared_ptr<const Ontology>& VenueOntology();

/// The exact miniature ontology of Fig. 4, used by unit tests and the
/// quickstart example: Venue -> {Computer Science -> {Database -> {SIGMOD,
/// VLDB, ICDE}, System -> {ICPADS, SOSP}}, Chemical Sciences -> {Chemical
/// Sciences (general) -> {RSC Advances}}}.
Ontology BuildFig4Ontology();

}  // namespace dime

#endif  // DIME_ONTOLOGY_BUILTIN_H_
