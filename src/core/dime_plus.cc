#include "src/core/dime_plus.h"

#include <utility>

#include "src/common/check.h"
#include "src/core/dime_plus_internal.h"
#include "src/core/signature.h"
#include "src/index/inverted_index.h"
#include "src/index/union_find.h"
#include "src/sim/set_similarity.h"

namespace dime {

DimeResult RunDimePlus(const PreparedGroup& pg,
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

  // A deadline hit before partitioning completes discards step 1 (half
  // merged partitions are not valid output); the status explains why.
  auto truncate_before_partitions = [&](Status st) {
    result.stats.kernel_early_exits =
        KernelEarlyExits() - kernel_exits_before;
    return internal::NoPartitionsResult(std::move(st), negative.size(),
                                        result.stats);
  };

  // ---- Step 1: signature-filtered partitioning. -------------------------
  UnionFind uf(static_cast<size_t>(n));
  std::vector<InvertedIndex> indexes(positive.size());
  size_t candidate_volume = 0;
  for (size_t r = 0; r < positive.size(); ++r) {
    Status st = internal::CheckRunControl(control, "dime_plus/index-rule");
    if (!st.ok()) return truncate_before_partitions(std::move(st));
    SignatureGenerator gen(pg, positive[r].predicates, Direction::kGe,
                           /*rule_tag=*/r + 1);
    SignatureScratch scratch;
    for (int e = 0; e < n; ++e) {
      indexes[r].Add(e, gen.PositiveRuleSignatures(e, &scratch));
    }
    candidate_volume += indexes[r].CandidateVolume();
  }
  result.stats.candidate_pairs = candidate_volume;

  // Candidate verification re-checks the control every kCheckStride
  // verifications — cheap against the cost of a rule evaluation.
  constexpr size_t kCheckStride = 256;
  size_t until_check = kCheckStride;
  auto control_hit = [&]() -> Status {
    if (--until_check > 0) return OkStatus();
    until_check = kCheckStride;
    return internal::CheckRunControl(control, "dime_plus/verify-candidates");
  };

  // Candidates stream straight off the inverted lists, shortest list
  // first: pairs sharing a rare (likely similar) signature go first, the
  // streaming stand-in for Section IV-C's exact benefit order. Nothing is
  // materialized or priced; the order cannot change the partitions, which
  // are the transitive closure of the verified positive edges (DESIGN.md
  // §6 item 5).
  Status stream_status;
  for (size_t r = 0; r < positive.size() && stream_status.ok(); ++r) {
    indexes[r].ForEachList([&](const int* list, size_t len) {
      // Whole-list transitivity skip: once every entity on a list shares
      // one partition, none of its |l|(|l|-1)/2 pairs can change the
      // components — decide that in O(|l|) instead of enumerating them.
      // This is where the flood from stop-word-like signatures (e.g. the
      // page owner's name on every entity) goes from ~16ns a pair to
      // nothing.
      bool all_connected = true;
      for (size_t i = 1; i < len; ++i) {
        if (!uf.Connected(list[0], list[i])) {
          all_connected = false;
          break;
        }
      }
      if (all_connected) {
        result.stats.pairs_skipped_by_transitivity += len * (len - 1) / 2;
        return true;
      }
      for (size_t i = 0; i < len; ++i) {
        for (size_t j = i + 1; j < len; ++j) {
          int e1 = list[i], e2 = list[j];
          if (e1 == e2) continue;
          if (e1 > e2) std::swap(e1, e2);
          stream_status = control_hit();
          if (!stream_status.ok()) return false;
          if (uf.Connected(e1, e2)) {
            ++result.stats.pairs_skipped_by_transitivity;
            continue;
          }
          ++result.stats.positive_pair_checks;
          if (EvalPositiveRule(pg, positive[r], e1, e2)) {
            uf.Union(e1, e2);
          }
        }
      }
      return true;
    });
  }
  if (!stream_status.ok()) {
    return truncate_before_partitions(std::move(stream_status));
  }
  result.partitions = uf.Components();

  // ---- Step 2: pivot. ----------------------------------------------------
  result.pivot = internal::PickPivot(result.partitions);

  // ---- Step 3: signature-filtered negative rules. ------------------------
  std::vector<int> first_flagging(result.partitions.size(), -1);
  if (result.pivot >= 0 && !negative.empty()) {
    const std::vector<int>& pivot_entities = result.partitions[result.pivot];

    // Per-rule read-only state (pivot signatures + the sig -> positions
    // map), built lazily on first use; the per-partition scan itself
    // lives in dime_plus_internal.h so the sharded engine (src/exec/)
    // runs the identical code concurrently.
    std::vector<internal::NegativeRuleContext> contexts(negative.size());
    internal::NegativeScratch scratch;
    auto rule_context =
        [&](size_t r) -> const internal::NegativeRuleContext& {
      if (!contexts[r].ready) {
        internal::BuildNegativeRuleContext(pg, negative[r], r, pivot_entities,
                                           &scratch.sig, &contexts[r]);
      }
      return contexts[r];
    };
    internal::NegativePhaseStats nstats;

    for (size_t p = 0; p < result.partitions.size(); ++p) {
      if (static_cast<int>(p) == result.pivot) continue;
      // Partition-boundary deadline check: stopping here leaves the rest
      // unflagged, keeping every flagged set a subset of the full run's.
      Status st =
          internal::CheckRunControl(control, "dime_plus/negative-partition");
      if (!st.ok()) {
        result.status = std::move(st);
        break;
      }
      first_flagging[p] = internal::FlagPartitionAgainstPivot(
          pg, negative, pivot_entities, result.partitions[p], rule_context,
          &scratch, &nstats);
    }
    result.stats.negative_pair_checks += nstats.negative_pair_checks;
    result.stats.partitions_pruned_by_filter +=
        nstats.partitions_pruned_by_filter;
  }
  result.first_flagging_rule = first_flagging;
  result.flagged_by_prefix = internal::BuildScrollbar(
      result.partitions, result.pivot, first_flagging, negative.size());
  result.stats.kernel_early_exits = KernelEarlyExits() - kernel_exits_before;
  internal::DcheckResultInvariants(result, pg.size(), negative.size());
  return result;
}

DimeResult RunDimePlus(const PreparedGroup& pg,
                       const std::vector<PositiveRule>& positive,
                       const std::vector<NegativeRule>& negative) {
  return RunDimePlus(pg, positive, negative, RunControl{});
}

DimeResult RunDimePlus(const Group& group,
                       const std::vector<PositiveRule>& positive,
                       const std::vector<NegativeRule>& negative,
                       const DimeContext& context) {
  PreparedGroup pg = PrepareGroup(group, positive, negative, context);
  return RunDimePlus(pg, positive, negative);
}

}  // namespace dime
