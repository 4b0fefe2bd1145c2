#include "src/core/dime.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/fault_injection.h"
#include "src/common/logging.h"
#include "src/index/union_find.h"
#include "src/sim/set_similarity.h"

namespace dime {
namespace internal {

int PickPivot(const std::vector<std::vector<int>>& partitions) {
  int pivot = -1;
  size_t best = 0;
  for (size_t i = 0; i < partitions.size(); ++i) {
    if (partitions[i].size() > best) {
      best = partitions[i].size();
      pivot = static_cast<int>(i);
    }
  }
  return pivot;
}

std::vector<std::vector<int>> BuildScrollbar(
    const std::vector<std::vector<int>>& partitions, int pivot,
    const std::vector<int>& first_flagging_rule, size_t num_rules) {
  std::vector<std::vector<int>> by_prefix(num_rules);
  for (size_t k = 0; k < num_rules; ++k) {
    std::vector<int>& flagged = by_prefix[k];
    for (size_t p = 0; p < partitions.size(); ++p) {
      if (static_cast<int>(p) == pivot) continue;
      int first = first_flagging_rule[p];
      if (first >= 0 && first <= static_cast<int>(k)) {
        flagged.insert(flagged.end(), partitions[p].begin(),
                       partitions[p].end());
      }
    }
    std::sort(flagged.begin(), flagged.end());
  }
  return by_prefix;
}

DimeResult NoPartitionsResult(Status status, size_t num_rules,
                              const DimeResult::Stats& stats) {
  DimeResult result;
  result.flagged_by_prefix.assign(num_rules, {});
  result.stats = stats;
  result.status = std::move(status);
  return result;
}

void DcheckResultInvariants(const DimeResult& result, size_t group_size,
                            size_t num_rules) {
#ifndef NDEBUG
  DIME_DCHECK_EQ(result.flagged_by_prefix.size(), num_rules);
  if (result.pivot >= 0) {
    DIME_DCHECK_LT(static_cast<size_t>(result.pivot),
                   result.partitions.size());
    // Step 2 contract: no partition is strictly larger than the pivot,
    // and none of equal size precedes it (ties break to smaller index).
    const size_t pivot_size = result.partitions[result.pivot].size();
    for (size_t p = 0; p < result.partitions.size(); ++p) {
      DIME_DCHECK_LE(result.partitions[p].size(), pivot_size)
          << "partition " << p << " is larger than pivot " << result.pivot;
      if (static_cast<int>(p) < result.pivot) {
        DIME_DCHECK_LT(result.partitions[p].size(), pivot_size)
            << "pivot tie must break to the smaller index, but partition "
            << p << " matches pivot " << result.pivot;
      }
    }
  }
  const std::vector<int>* prev = nullptr;
  for (size_t k = 0; k < result.flagged_by_prefix.size(); ++k) {
    const std::vector<int>& flagged = result.flagged_by_prefix[k];
    DIME_DCHECK(std::is_sorted(flagged.begin(), flagged.end()));
    if (prev != nullptr) {
      // Scrollbar monotonicity (Fig. 3): each prefix's flagged set
      // contains the previous prefix's.
      DIME_DCHECK(
          std::includes(flagged.begin(), flagged.end(), prev->begin(),
                        prev->end()))
          << "scrollbar not monotone at prefix " << k;
    }
    prev = &flagged;
    for (int e : flagged) {
      DIME_DCHECK_GE(e, 0);
      DIME_DCHECK_LT(static_cast<size_t>(e), group_size)
          << "flagged entity outside the group at prefix " << k;
      if (result.pivot >= 0) {
        const std::vector<int>& pe = result.partitions[result.pivot];
        DIME_DCHECK(!std::binary_search(pe.begin(), pe.end(), e))
            << "pivot entity " << e << " flagged at prefix " << k;
      }
    }
  }
#else
  (void)result;
  (void)group_size;
  (void)num_rules;
#endif
}

Status CheckRunControl(const RunControl& control, const char* where) {
  if (DIME_FAULT_POINT(failpoints::kEngineDeadline)) {
    return DeadlineExceededError(std::string("injected deadline pressure at ") +
                                 where);
  }
  if (control.IsUnbounded()) return OkStatus();
  return control.Check(where);
}

}  // namespace internal

DimeResult RunDime(const PreparedGroup& pg,
                   const std::vector<PositiveRule>& positive,
                   const std::vector<NegativeRule>& negative,
                   const RunControl& control) {
  DimeResult result;
  const int n = static_cast<int>(pg.size());
  if (n == 0) {
    return internal::NoPartitionsResult(OkStatus(), negative.size());
  }
  // Snapshot the thread's kernel counter so the result reports this run's
  // early exits only (the engine is single-threaded, so the delta is ours).
  const uint64_t kernel_exits_before = KernelEarlyExits();

  // Both pair loops evaluate rules through resolved plans: the
  // per-predicate ceremony (attribute indexing, token-mode selection, the
  // ontology node-map lookup) runs once per rule here instead of once per
  // pair, and each check dispatches straight into the flat threshold-aware
  // kernels. Short-circuit order follows each rule's predicate order.
  std::vector<RulePlan> positive_plans;
  positive_plans.reserve(positive.size());
  for (const PositiveRule& rule : positive) {
    positive_plans.push_back(
        BuildRulePlan(pg, rule.predicates, Direction::kGe));
  }
  std::vector<RulePlan> negative_plans;
  negative_plans.reserve(negative.size());
  for (const NegativeRule& rule : negative) {
    negative_plans.push_back(
        BuildRulePlan(pg, rule.predicates, Direction::kLe));
  }

  // Step 1: check every entity pair against the disjunction of positive
  // rules; connected components of the match graph are the partitions.
  // Aborting mid-scan would leave half-merged partitions, so a deadline
  // hit here discards step 1 entirely (checked once per row).
  UnionFind uf(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Status st = internal::CheckRunControl(control, "dime/positive-row");
    if (!st.ok()) {
      return internal::NoPartitionsResult(std::move(st), negative.size(),
                                          result.stats);
    }
    for (int j = i + 1; j < n; ++j) {
      for (const RulePlan& plan : positive_plans) {
        ++result.stats.positive_pair_checks;
        if (EvalRulePlan(plan, i, j)) {
          uf.Union(i, j);
          break;
        }
      }
    }
  }
  result.partitions = uf.Components();

  // Step 2: the pivot partition.
  result.pivot = internal::PickPivot(result.partitions);

  // Step 3: negative rules in sequence. A partition P is mis-categorized
  // under rule r if some entity of P is dissimilar from EVERY pivot entity
  // (Example 9: e4 is flagged "because e4 does not have overlapping in
  // Authors with any entity in P1"). We record the first rule that flags
  // each partition; the scrollbar prefixes follow from it.
  //
  // Deadline checks sit at partition boundaries: stopping there leaves the
  // remaining partitions unflagged, so every flagged set is a subset of
  // the untruncated run's and the scrollbar stays monotone.
  std::vector<int> first_flagging(result.partitions.size(), -1);
  if (result.pivot >= 0) {
    const std::vector<int>& pivot_entities = result.partitions[result.pivot];
    for (size_t p = 0; p < result.partitions.size(); ++p) {
      if (static_cast<int>(p) == result.pivot) continue;
      Status st = internal::CheckRunControl(control, "dime/negative-partition");
      if (!st.ok()) {
        result.status = std::move(st);
        break;
      }
      for (size_t r = 0; r < negative.size() && first_flagging[p] < 0; ++r) {
        for (int e : result.partitions[p]) {
          bool all_dissimilar = true;
          for (int e_star : pivot_entities) {
            ++result.stats.negative_pair_checks;
            if (!EvalRulePlan(negative_plans[r], e, e_star)) {
              all_dissimilar = false;
              break;
            }
          }
          if (all_dissimilar) {
            first_flagging[p] = static_cast<int>(r);
            break;
          }
        }
      }
    }
  }
  result.first_flagging_rule = first_flagging;
  result.flagged_by_prefix = internal::BuildScrollbar(
      result.partitions, result.pivot, first_flagging, negative.size());
  result.stats.kernel_early_exits = KernelEarlyExits() - kernel_exits_before;
  internal::DcheckResultInvariants(result, pg.size(), negative.size());
  return result;
}

DimeResult RunDime(const PreparedGroup& pg,
                   const std::vector<PositiveRule>& positive,
                   const std::vector<NegativeRule>& negative) {
  return RunDime(pg, positive, negative, RunControl{});
}

DimeResult RunDime(const Group& group,
                   const std::vector<PositiveRule>& positive,
                   const std::vector<NegativeRule>& negative,
                   const DimeContext& context) {
  PreparedGroup pg = PrepareGroup(group, positive, negative, context);
  return RunDime(pg, positive, negative);
}

}  // namespace dime
