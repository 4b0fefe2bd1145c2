#ifndef DIME_CORE_DIME_H_
#define DIME_CORE_DIME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/deadline.h"
#include "src/common/status.h"
#include "src/core/preprocess.h"
#include "src/rules/rule.h"

/// \file dime.h
/// The basic rule-based framework DIME (Algorithm 1):
///
///   Step 1  apply the disjunction of positive rules to every entity pair
///           and take connected components as disjoint partitions;
///   Step 2  the largest partition is the pivot P* (assumed correct);
///   Step 3  apply negative rules in sequence: a non-pivot partition P is
///           mis-categorized under prefix k if some entity of P is
///           dissimilar from EVERY pivot entity according to one of the
///           first k negative rules (Example 9: e4 is flagged because it
///           "does not have overlapping Authors with any entity in P1").
///
/// The per-prefix outputs implement the scrollbar of Fig. 3: they are
/// monotone (each prefix's flagged set contains the previous one), so a
/// user can slide between conservative and aggressive suggestions.

namespace dime {

/// Output of DIME / DIME+ on one group.
struct DimeResult {
  /// Disjoint partitions; each partition's entity indices are ascending and
  /// partitions are ordered by smallest member.
  std::vector<std::vector<int>> partitions;

  /// Index into `partitions` of the pivot (-1 for an empty group). Largest
  /// size wins; ties break toward the smaller partition index.
  int pivot = -1;

  /// flagged_by_prefix[k] = mis-categorized entity indices (ascending)
  /// after applying negative rules phi_1 .. phi_{k+1} as a disjunction.
  /// Monotone in k. Size = number of negative rules.
  std::vector<std::vector<int>> flagged_by_prefix;

  /// Convenience: the last prefix (all negative rules), or empty if there
  /// are none.
  const std::vector<int>& flagged() const {
    static const std::vector<int>& kEmpty = *new std::vector<int>();
    return flagged_by_prefix.empty() ? kEmpty : flagged_by_prefix.back();
  }

  /// Per partition: the index of the first negative rule that flags it
  /// (-1 = never flagged). Parallel to `partitions`; drives the scrollbar
  /// and the explanation API (core/explain.h).
  std::vector<int> first_flagging_rule;

  /// The partition index containing `entity`, or -1. Linear scan — build
  /// your own entity->partition map for bulk queries.
  int PartitionOf(int entity) const {
    for (size_t p = 0; p < partitions.size(); ++p) {
      for (int e : partitions[p]) {
        if (e == entity) return static_cast<int>(p);
      }
    }
    return -1;
  }

  /// Instrumentation for the efficiency study (Fig. 9 / ablations).
  struct Stats {
    size_t positive_pair_checks = 0;   ///< rule evaluations in step 1
    size_t negative_pair_checks = 0;   ///< rule evaluations in step 3
    size_t candidate_pairs = 0;        ///< pairs surviving the filter (DIME+)
    size_t partitions_pruned_by_filter = 0;  ///< step-3 signature prunes
    /// Candidate pairs never verified because both entities were already
    /// in one partition (DIME+ transitivity skip, including whole inverted
    /// lists skipped at once).
    size_t pairs_skipped_by_transitivity = 0;
    /// Threshold-aware similarity kernel invocations that decided before
    /// consuming their whole inputs (sim/set_similarity.h).
    size_t kernel_early_exits = 0;
  };
  Stats stats;

  /// Entity indices of the pivot partition (empty for an empty group).
  const std::vector<int>& PivotEntities() const {
    static const std::vector<int>& kEmpty = *new std::vector<int>();
    return pivot < 0 ? kEmpty : partitions[pivot];
  }

  /// OK for a complete run. DEADLINE_EXCEEDED / CANCELLED when a
  /// RunControl stopped the engine early: the result is then partial but
  /// valid — every flagged set is a subset of what the untruncated run
  /// would flag, and the scrollbar prefixes stay monotone. INTERNAL when
  /// a DIME+ task faulted and so did the group's rerun on one executor
  /// (exec/sharded_dime.h); the result carries no partitions then.
  Status status;

  bool ok() const { return status.ok(); }
};

/// Runs Algorithm 1 (the naive quadratic framework). `control` bounds the
/// run: the engine checks the deadline / cancellation token at row and
/// partition boundaries and, on expiry, returns the monotone scrollbar
/// prefix computed so far with a non-OK status (see DimeResult::status).
/// An expiry during step 1 yields no partitions at all — half-merged
/// partitions would not be valid.
DimeResult RunDime(const PreparedGroup& pg,
                   const std::vector<PositiveRule>& positive,
                   const std::vector<NegativeRule>& negative,
                   const RunControl& control);

DimeResult RunDime(const PreparedGroup& pg,
                   const std::vector<PositiveRule>& positive,
                   const std::vector<NegativeRule>& negative);

/// Convenience wrapper: prepares `group` and runs Algorithm 1.
DimeResult RunDime(const Group& group,
                   const std::vector<PositiveRule>& positive,
                   const std::vector<NegativeRule>& negative,
                   const DimeContext& context);

/// Shared helpers (used by both engines; exposed for tests).
namespace internal {

/// Engine-side RunControl check: folds in the "engine/deadline" failpoint
/// so tests can apply deadline pressure without racing a real clock.
Status CheckRunControl(const RunControl& control, const char* where);

/// Picks the pivot: largest partition, ties toward smaller index.
int PickPivot(const std::vector<std::vector<int>>& partitions);

/// Turns per-partition "first flagging rule" indices (-1 = never flagged)
/// into monotone per-prefix entity lists.
std::vector<std::vector<int>> BuildScrollbar(
    const std::vector<std::vector<int>>& partitions, int pivot,
    const std::vector<int>& first_flagging_rule, size_t num_rules);

/// The result of a run that ends without partitions: an empty group (OK
/// status), a step-1 truncation, or an engine or worker fault. No
/// partitions, no pivot, exactly `num_rules` empty scrollbar prefixes,
/// the given `stats` and `status`.
DimeResult NoPartitionsResult(Status status, size_t num_rules,
                              const DimeResult::Stats& stats = {});

/// Debug-only (DIME_DCHECK) validation of the engine output contract,
/// called by every engine at its final phase boundary:
///   - the pivot is a maximum-size partition (ties to the smaller index);
///   - the scrollbar is monotone: flagged_by_prefix[k-1] ⊆ [k];
///   - every flagged entity is in the group ([0, group_size)) and outside
///     the pivot partition;
///   - flagged_by_prefix has exactly `num_rules` prefixes.
/// Free in NDEBUG builds (the body compiles away).
void DcheckResultInvariants(const DimeResult& result, size_t group_size,
                            size_t num_rules);

}  // namespace internal
}  // namespace dime

#endif  // DIME_CORE_DIME_H_
