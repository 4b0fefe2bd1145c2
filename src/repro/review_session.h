#ifndef DIME_REPRO_REVIEW_SESSION_H_
#define DIME_REPRO_REVIEW_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/dime.h"
#include "src/entity/entity.h"
#include "src/core/metrics.h"

/// \file review_session.h
/// The user-effort model behind the paper's GUI argument (Section I /
/// Section III): "it is way cheaper for users to confirm our suggested
/// mis-categorized entities than selecting them manually from the entire
/// group — Guoliang has 178 Google Scholar entries, where 6 are
/// mis-categorized; we will discover 5 to 10 with different negative
/// rules, which saves Guoliang from checking 178 entries".
///
/// A ReviewSession replays a user dragging the scrollbar from the first
/// prefix to a chosen position and confirming each *newly* suggested
/// entity once. Effort = number of confirmations; the baseline is
/// reviewing the whole group.

namespace dime {

struct ReviewOutcome {
  size_t suggestions_reviewed = 0;  ///< entities the user had to look at
  size_t errors_found = 0;          ///< true errors among them
  size_t errors_missed = 0;         ///< true errors never suggested
  size_t group_size = 0;            ///< the manual-review baseline
  /// Fraction of the manual effort avoided: 1 - reviewed / group size.
  double effort_saved = 0.0;
  /// Fraction of all true errors surfaced by the chosen prefix.
  double coverage = 0.0;
};

/// Simulates reviewing prefixes 1..`prefix` (1-based; clamped to the
/// number of negative rules) of `result` against `group`'s ground truth.
/// Entities suggested by several prefixes are reviewed once.
ReviewOutcome SimulateReview(const Group& group, const DimeResult& result,
                             size_t prefix);

/// The smallest prefix reaching `min_coverage` of the true errors, or the
/// last prefix if none does (0-based result + 1; 0 when there are no
/// negative rules).
size_t PrefixForCoverage(const Group& group, const DimeResult& result,
                         double min_coverage);

/// The user's verdict on one suggestion.
using ConfirmOracle = std::function<bool(int entity)>;

struct InteractiveOutcome {
  std::vector<int> confirmed;   ///< suggestions the user accepted (removals)
  std::vector<int> rejected;    ///< suggestions the user kept
  size_t reviews = 0;           ///< confirmations performed (the effort)
  /// Quality of the final cleaned group, assuming confirmed entities are
  /// removed: precision/recall of `confirmed` against the ground truth.
  Prf quality;
};

/// Replays the interactive workflow of Fig. 3: the user drags through the
/// scrollbar positions 1..prefix; each NEWLY suggested entity is reviewed
/// exactly once via `oracle` (true = "yes, remove it"). Rejected entities
/// stay rejected at deeper positions (they are never re-suggested).
InteractiveOutcome InteractiveReview(const Group& group,
                                     const DimeResult& result, size_t prefix,
                                     const ConfirmOracle& oracle);

/// An oracle that answers from ground truth but errs with probability
/// `mistake_rate` (deterministic per seed) — models imperfect users.
ConfirmOracle NoisyTruthOracle(const Group& group, double mistake_rate,
                               uint64_t seed);

}  // namespace dime

#endif  // DIME_REPRO_REVIEW_SESSION_H_
