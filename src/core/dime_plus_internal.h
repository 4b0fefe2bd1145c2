#ifndef DIME_CORE_DIME_PLUS_INTERNAL_H_
#define DIME_CORE_DIME_PLUS_INTERNAL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/dime.h"
#include "src/core/preprocess.h"
#include "src/core/signature.h"

/// \file dime_plus_internal.h
/// The per-partition scan of the DIME+ negative phase (step 3). The
/// engine (src/exec/sharded_dime.cc) builds every rule's read-only
/// context once, then runs one scan per partition as a pool task; the
/// verification order and pair-check counts of a scan are pinned by
/// golden tests and must not drift:
///
///  * NegativeRuleContext  per-rule read-only state (the rule's plan,
///                         pivot signatures and the signature ->
///                         pivot-position map), shared by every
///                         partition scan;
///  * NegativeScratch      per-thread buffers (member signatures, the
///                         dense shared-count slots + dirty list);
///  * FlagPartitionAgainstPivot  the scan of one partition against the
///                         pivot: signature filter, then benefit-ordered
///                         verification of the pairs sharing a
///                         signature, through the rule's plan.
///
/// The sig -> pivot-positions map is a flat array grouped by signature
/// (exec/group_by_signature.h), probed by binary search.

namespace dime {
namespace internal {

/// (signature, pivot position) entries sorted by signature; the positions
/// of one signature form a contiguous ascending run.
class PivotSigMap {
 public:
  using Entry = std::pair<uint64_t, uint32_t>;

  /// Takes one entry per (pivot position, signature), grouped by
  /// signature with the positions of each signature ascending.
  void AdoptSorted(std::vector<Entry> entries);

  /// The ascending pivot positions sharing signature `s` (len 0 if none).
  struct PosRun {
    const Entry* ptr = nullptr;
    size_t len = 0;
    const Entry* begin() const { return ptr; }
    const Entry* end() const { return ptr + len; }
  };
  PosRun Find(uint64_t s) const;

  bool Contains(uint64_t s) const { return Find(s).len > 0; }

 private:
  std::vector<Entry> entries_;
};

/// Read-only per-negative-rule state shared by every partition scan.
struct NegativeRuleContext {
  /// The rule resolved against the group (Direction::kLe): verifies and
  /// prices candidate pairs.
  RulePlan plan;
  /// The rule's signature generator. Const methods only after
  /// construction, so tasks may share it with private scratches.
  std::unique_ptr<SignatureGenerator> gen;
  /// One signature run per pivot position.
  std::vector<std::vector<uint64_t>> pivot_sigs;
  PivotSigMap pivot_map;
};

/// A negative-rule verification candidate (member of the partition under
/// test against one pivot entity), ordered by descending benefit.
struct NegativeCandidate {
  double benefit;
  int e;       ///< entity in the partition under test
  int e_star;  ///< entity in the pivot
};

/// Per-thread buffers for FlagPartitionAgainstPivot. One instance per
/// executing thread; reusable across partitions (the dense shared-count
/// slots rely on the dirty-list reset invariant to stay zeroed).
struct NegativeScratch {
  SignatureScratch sig;
  std::vector<std::vector<uint64_t>> member_sigs;
  std::vector<uint32_t> shared_with_pivot;  ///< dense, one per pivot position
  std::vector<uint32_t> dirty;
  std::vector<NegativeCandidate> cands;
};

/// Stat deltas of one or more partition scans; deterministic per
/// partition, so any summation order gives the same totals.
struct NegativePhaseStats {
  size_t negative_pair_checks = 0;
  size_t partitions_pruned_by_filter = 0;
};

/// Scans one partition against the pivot and returns the index of the
/// first negative rule that flags it (-1 = never flagged). `contexts`
/// holds one context per negative rule, in rule order.
int FlagPartitionAgainstPivot(const std::vector<int>& pivot_entities,
                              const std::vector<int>& members,
                              const std::vector<NegativeRuleContext>& contexts,
                              NegativeScratch* scratch,
                              NegativePhaseStats* stats);

}  // namespace internal
}  // namespace dime

#endif  // DIME_CORE_DIME_PLUS_INTERNAL_H_
