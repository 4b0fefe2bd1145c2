#include "src/repro/review_session.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/random.h"

namespace dime {

ReviewOutcome SimulateReview(const Group& group, const DimeResult& result,
                             size_t prefix) {
  DIME_CHECK(group.has_truth());
  ReviewOutcome outcome;
  outcome.group_size = group.size();

  size_t total_errors = 0;
  for (uint8_t t : group.truth) total_errors += t;

  if (!result.flagged_by_prefix.empty()) {
    prefix = std::min(prefix, result.flagged_by_prefix.size());
    // Prefixes are monotone, so the entities reviewed by position k are
    // exactly flagged_by_prefix[k-1].
    const std::vector<int>& reviewed =
        prefix == 0 ? result.flagged_by_prefix.front()
                    : result.flagged_by_prefix[prefix - 1];
    outcome.suggestions_reviewed = reviewed.size();
    for (int e : reviewed) outcome.errors_found += group.truth[e];
  }
  outcome.errors_missed = total_errors - outcome.errors_found;
  outcome.effort_saved =
      group.size() == 0
          ? 0.0
          : 1.0 - static_cast<double>(outcome.suggestions_reviewed) /
                      static_cast<double>(group.size());
  outcome.coverage = total_errors == 0
                         ? 1.0
                         : static_cast<double>(outcome.errors_found) /
                               static_cast<double>(total_errors);
  return outcome;
}

InteractiveOutcome InteractiveReview(const Group& group,
                                     const DimeResult& result, size_t prefix,
                                     const ConfirmOracle& oracle) {
  DIME_CHECK(group.has_truth());
  InteractiveOutcome outcome;
  if (result.flagged_by_prefix.empty()) {
    outcome.quality = EvaluateFlagged(group, {});
    return outcome;
  }
  prefix = std::min(std::max<size_t>(prefix, 1),
                    result.flagged_by_prefix.size());

  std::vector<bool> seen(group.size(), false);
  for (size_t k = 0; k < prefix; ++k) {
    for (int e : result.flagged_by_prefix[k]) {
      if (seen[e]) continue;  // reviewed at a shallower position
      seen[e] = true;
      ++outcome.reviews;
      if (oracle(e)) {
        outcome.confirmed.push_back(e);
      } else {
        outcome.rejected.push_back(e);
      }
    }
  }
  std::sort(outcome.confirmed.begin(), outcome.confirmed.end());
  std::sort(outcome.rejected.begin(), outcome.rejected.end());
  outcome.quality = EvaluateFlagged(group, outcome.confirmed);
  return outcome;
}

ConfirmOracle NoisyTruthOracle(const Group& group, double mistake_rate,
                               uint64_t seed) {
  DIME_CHECK(group.has_truth());
  // Deterministic per (entity, seed): the same question always gets the
  // same answer, independent of review order.
  std::vector<uint8_t> truth = group.truth;
  return [truth, mistake_rate, seed](int entity) {
    Random rng(seed + static_cast<uint64_t>(entity) * 2654435761ULL);
    bool correct_answer = truth[entity] != 0;
    return rng.Bernoulli(mistake_rate) ? !correct_answer : correct_answer;
  };
}

size_t PrefixForCoverage(const Group& group, const DimeResult& result,
                         double min_coverage) {
  if (result.flagged_by_prefix.empty()) return 0;
  for (size_t k = 1; k <= result.flagged_by_prefix.size(); ++k) {
    if (SimulateReview(group, result, k).coverage >= min_coverage) return k;
  }
  return result.flagged_by_prefix.size();
}

}  // namespace dime
