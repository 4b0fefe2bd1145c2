#ifndef DIME_RULES_PREDICATE_H_
#define DIME_RULES_PREDICATE_H_

#include <string>

#include "src/entity/entity.h"
#include "src/sim/similarity.h"

/// \file predicate.h
/// A predicate is one conjunct of a rule: `f(A) >= theta` in a positive
/// rule or `f(A) <= sigma` in a negative rule (Section II). The comparison
/// direction is owned by the rule type, not the predicate, so the same
/// predicate structure serves both.

namespace dime {

/// Comparison direction applied by the owning rule.
enum class Direction : int {
  kGe = 0,  ///< similarity >= threshold (positive rules)
  kLe = 1,  ///< similarity <= threshold (negative rules)
};

struct Predicate {
  int attr = 0;                             ///< attribute index in the schema
  SimFunc func = SimFunc::kOverlap;         ///< similarity function f
  TokenMode mode = TokenMode::kValueList;   ///< tokenization for set funcs
  double threshold = 0.0;                   ///< theta (>=) or sigma (<=)
  int ontology_index = 0;                   ///< which context ontology (kOntology)

  /// True iff `sim` satisfies this predicate under `dir`.
  bool Compare(double sim, Direction dir) const {
    return dir == Direction::kGe ? sim >= threshold - kSimCompareEps
                                 : sim <= threshold + kSimCompareEps;
  }

  /// Renders e.g. "overlap(Authors) >= 2" / "ontology(Venue) <= 0.25".
  std::string ToString(const Schema& schema, Direction dir) const;

  friend bool operator==(const Predicate& a, const Predicate& b) {
    return a.attr == b.attr && a.func == b.func && a.mode == b.mode &&
           a.threshold == b.threshold && a.ontology_index == b.ontology_index;
  }
};

}  // namespace dime

#endif  // DIME_RULES_PREDICATE_H_
