#ifndef DIME_CORE_DIME_PLUS_INTERNAL_H_
#define DIME_CORE_DIME_PLUS_INTERNAL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/dime.h"
#include "src/core/signature.h"

/// \file dime_plus_internal.h
/// The DIME+ negative phase, factored out of RunDimePlus so the sharded
/// execution engine (src/exec/sharded_dime.cc) runs the exact same
/// per-partition scan concurrently. The split is strictly mechanical —
/// the serial engine's verification order, pair-check counts and filter
/// prunes are pinned by golden tests and must not drift:
///
///  * NegativeRuleContext  per-rule read-only state (pivot signatures and
///                         the signature -> pivot-position map), built
///                         once, then shared by every partition scan;
///  * NegativeScratch      per-thread buffers (member signatures, the
///                         dense shared-count slots + dirty list);
///  * FlagPartitionAgainstPivot  the scan of one partition against the
///                         pivot: signature filter, then benefit-ordered
///                         pair verification.
///
/// The sig -> pivot-positions map is a flat array grouped by signature
/// instead of the hash map RunDimePlus used to build inline: same
/// contents, same ascending-position iteration order (so verification
/// order and counts are unchanged), but built in linear time by
/// GroupBySignature (index/group_by_signature.h, pooled in the sharded
/// engine) and ~2x faster to probe on large pivots.

namespace dime {
namespace internal {

/// (signature, pivot position) entries sorted by signature; the positions
/// of one signature form a contiguous ascending run, exactly the
/// iteration order of the hash-map-of-vectors it replaces.
class PivotSigMap {
 public:
  using Entry = std::pair<uint64_t, uint32_t>;

  /// Groups one entry per (pivot position, signature) by signature.
  /// Deterministic for given signatures.
  void Build(const std::vector<std::vector<uint64_t>>& pivot_sigs);

  /// Takes entries the sharded engine grouped on its pool; `entries`
  /// must be what Build would produce.
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
  /// The rule's signature generator. Const methods only after
  /// construction, so tasks may share it with private scratches.
  std::unique_ptr<SignatureGenerator> gen;
  /// One signature run per pivot position.
  std::vector<std::vector<uint64_t>> pivot_sigs;
  PivotSigMap pivot_map;
  bool ready = false;
};

/// Creates the generator for rule `r`. Idempotent.
void EnsureNegativeGenerator(const PreparedGroup& pg,
                             const NegativeRule& rule, size_t r,
                             NegativeRuleContext* ctx);

/// Fills pivot_sigs[i] for pivot positions [begin, end). The sharded
/// engine calls this from per-chunk tasks with per-task scratches; the
/// serial engine calls it once over the full range.
void GeneratePivotSignatures(const std::vector<int>& pivot_entities,
                             size_t begin, size_t end,
                             SignatureScratch* scratch,
                             NegativeRuleContext* ctx);

/// Serial one-shot build of the whole context (generator + signatures +
/// map) — the lazy ensure_rule path of RunDimePlus.
void BuildNegativeRuleContext(const PreparedGroup& pg,
                              const NegativeRule& rule, size_t r,
                              const std::vector<int>& pivot_entities,
                              SignatureScratch* scratch,
                              NegativeRuleContext* ctx);

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
/// partition, so any summation order reproduces the serial totals.
struct NegativePhaseStats {
  size_t negative_pair_checks = 0;
  size_t partitions_pruned_by_filter = 0;
};

/// Scans one partition against the pivot and returns the index of the
/// first negative rule that flags it (-1 = never flagged). `rule_context`
/// returns the ready context of rule r (the serial engine builds lazily
/// inside it; the sharded engine prebuilds and just indexes). Identical
/// decision, verification order and counts to the historical inline code
/// of RunDimePlus step 3.
template <typename RuleContextFn>
int FlagPartitionAgainstPivot(const PreparedGroup& pg,
                              const std::vector<NegativeRule>& negative,
                              const std::vector<int>& pivot_entities,
                              const std::vector<int>& members,
                              const RuleContextFn& rule_context,
                              NegativeScratch* scratch,
                              NegativePhaseStats* stats);

}  // namespace internal
}  // namespace dime

#include "src/core/dime_plus_internal_inl.h"

#endif  // DIME_CORE_DIME_PLUS_INTERNAL_H_
