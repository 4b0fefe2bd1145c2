#include "src/core/dime_plus_internal.h"

#include <algorithm>

#include "src/index/verification.h"

namespace dime {
namespace internal {

void PivotSigMap::AdoptSorted(std::vector<Entry> entries) {
  entries_ = std::move(entries);
}

PivotSigMap::PosRun PivotSigMap::Find(uint64_t s) const {
  auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), s,
      [](const Entry& e, uint64_t v) { return e.first < v; });
  auto hi = lo;
  while (hi != entries_.end() && hi->first == s) ++hi;
  PosRun run;
  run.ptr = entries_.data() + (lo - entries_.begin());
  run.len = static_cast<size_t>(hi - lo);
  return run;
}

int FlagPartitionAgainstPivot(const std::vector<int>& pivot_entities,
                              const std::vector<int>& members,
                              const std::vector<NegativeRuleContext>& contexts,
                              NegativeScratch* scratch,
                              NegativePhaseStats* stats) {
  int flag = -1;
  if (scratch->member_sigs.size() < members.size()) {
    scratch->member_sigs.resize(members.size());
  }
  // Dense per-member shared-signature counter: one slot per pivot
  // position, reset between members through the dirty list — the
  // hash-map pair counter this replaces spent more time hashing
  // (member, pivot) keys than verifying rules on large pivots.
  if (scratch->shared_with_pivot.size() != pivot_entities.size()) {
    scratch->shared_with_pivot.assign(pivot_entities.size(), 0);
    scratch->dirty.clear();
  }
  std::vector<std::vector<uint64_t>>& member_sigs = scratch->member_sigs;
  std::vector<uint32_t>& shared_with_pivot = scratch->shared_with_pivot;
  std::vector<uint32_t>& dirty = scratch->dirty;

  for (size_t r = 0; r < contexts.size() && flag < 0; ++r) {
    const NegativeRuleContext& ctx = contexts[r];

    // Filter: generate each member's signatures once (they are reused
    // for the shared counts below) and test whether any matches a
    // pivot signature.
    bool any_shared = false;
    for (size_t m = 0; m < members.size(); ++m) {
      member_sigs[m] =
          ctx.gen->NegativeRuleSignatures(members[m], &scratch->sig);
      if (any_shared) continue;
      for (uint64_t s : member_sigs[m]) {
        if (ctx.pivot_map.Contains(s)) {
          any_shared = true;
          break;
        }
      }
    }
    if (!any_shared) {
      // No signature of P matches any signature of P*: every cross pair
      // satisfies the rule, so every member of P is dissimilar from the
      // whole pivot — flag without verification.
      flag = static_cast<int>(r);
      ++stats->partitions_pruned_by_filter;
      break;
    }

    // Verification: a member flags the partition if it is dissimilar
    // from EVERY pivot entity. Only the pivot entities sharing a
    // signature with the member need checking: by the dual guarantee
    // (signature.h) a pair sharing none satisfies the rule. They are
    // checked most-likely-similar first (shared signatures up, cost
    // down), so a violating pair — which ends this member's scan — is
    // found as early as possible.
    std::vector<NegativeCandidate>& cands = scratch->cands;
    for (size_t m = 0; m < members.size() && flag < 0; ++m) {
      // Scatter this member's shared counts into the dense slots.
      for (uint64_t s : member_sigs[m]) {
        PivotSigMap::PosRun run = ctx.pivot_map.Find(s);
        for (const PivotSigMap::Entry& ent : run) {
          const uint32_t i = ent.second;
          if (shared_with_pivot[i]++ == 0) {
            dirty.push_back(i);
          }
        }
      }
      bool all_dissimilar = true;
      cands.clear();
      cands.reserve(dirty.size());
      for (uint32_t i : dirty) {
        double prob = SimilarProbability(shared_with_pivot[i],
                                         member_sigs[m].size(),
                                         ctx.pivot_sigs[i].size());
        double cost =
            RuleVerificationCost(ctx.plan, members[m], pivot_entities[i]);
        cands.push_back(NegativeCandidate{PositiveBenefit(prob, cost),
                                          members[m], pivot_entities[i]});
      }
      std::sort(cands.begin(), cands.end(),
                [](const NegativeCandidate& a, const NegativeCandidate& b) {
                  if (a.benefit != b.benefit) return a.benefit > b.benefit;
                  return a.e_star < b.e_star;
                });
      for (const NegativeCandidate& c : cands) {
        ++stats->negative_pair_checks;
        if (!EvalRulePlan(ctx.plan, c.e, c.e_star)) {
          all_dissimilar = false;
          break;
        }
      }
      for (uint32_t d : dirty) shared_with_pivot[d] = 0;
      dirty.clear();
      if (all_dissimilar) flag = static_cast<int>(r);
    }
  }
  return flag;
}

}  // namespace internal
}  // namespace dime
