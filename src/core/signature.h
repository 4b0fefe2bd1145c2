#ifndef DIME_CORE_SIGNATURE_H_
#define DIME_CORE_SIGNATURE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/preprocess.h"
#include "src/rules/predicate.h"

/// \file signature.h
/// Signature generation (Section IV-B). For every similarity class there is
/// a scheme such that two values satisfying `f >= theta` must share a
/// signature:
///
///  * set-based:  the first |v| - o + 1 tokens of the rank-sorted value,
///                where o is the minimum qualifying overlap (prefix
///                filtering on the document-frequency global order);
///  * char-based: the first q*d + 1 rank-sorted q-grams, where d is the
///                largest edit distance compatible with the threshold;
///  * ontology:   the ancestor at depth tau_min (the node signature of
///                Lemma 4.2), where tau_min is the smallest tau_n over the
///                group.
///
/// For negative rules the same schemes run with the effective threshold
/// "just above" sigma, giving the dual guarantee: if two entities share no
/// signature for ANY predicate, every predicate similarity is <= sigma and
/// the pair must satisfy the rule.
///
/// Degenerate predicates that any pair satisfies (e.g. `jaccard >= 0`)
/// would break prefix filtering, so they emit a single universal signature
/// shared by all entities — completeness is preserved and the pairs fall
/// through to verification.

namespace dime {

/// Cap on tuple signatures per entity for a positive rule. When the
/// expected cross-product across predicates exceeds the cap, the
/// generator falls back to indexing only the most selective predicate
/// (smallest average signature count), which is still complete.
constexpr size_t kMaxTupleSignatures = 64;

/// Reusable buffers for the scratch overloads of SignatureGenerator:
/// hoist one instance out of a per-entity loop and the generator stops
/// touching the allocator in the hot path (the batched hash kernels then
/// dominate instead of malloc). Not thread-safe: one scratch per thread.
struct SignatureScratch {
  std::vector<uint64_t> sigs;      ///< one predicate's signatures
  std::vector<uint64_t> combined;  ///< accumulator; results are returned here
  std::vector<uint64_t> next;      ///< tuple cross-product target
};

/// Generates signatures for one rule (its predicate list + direction) over
/// a prepared group.
class SignatureGenerator {
 public:
  SignatureGenerator(const PreparedGroup& pg,
                     const std::vector<Predicate>& predicates, Direction dir,
                     uint64_t rule_tag);

  /// Per-predicate signatures of `entity` (tagged with the predicate index
  /// and `rule_tag`). Empty when the entity cannot reach the effective
  /// threshold with any partner.
  std::vector<uint64_t> PredicateSignatures(size_t pred_idx, int entity) const;

  /// As above, written into `*out` (cleared first) so a caller-held buffer
  /// is reused across entities.
  void PredicateSignatures(size_t pred_idx, int entity,
                           std::vector<uint64_t>* out) const;

  /// Signatures of `entity` for a positive rule: the (capped)
  /// cross-product combination across predicates. Two entities satisfying
  /// the rule must share one. Empty when some predicate is unsatisfiable
  /// for this entity.
  std::vector<uint64_t> PositiveRuleSignatures(int entity) const;

  /// Allocation-free variant: the result lives in `scratch->combined` and
  /// the returned reference is valid until the next call with the same
  /// scratch. Identical contents to the by-value overload.
  const std::vector<uint64_t>& PositiveRuleSignatures(
      int entity, SignatureScratch* scratch) const;

  /// Signatures of `entity` for a negative rule: the tagged union across
  /// predicates. If the signature sets of two entities are disjoint, the
  /// pair satisfies the rule.
  std::vector<uint64_t> NegativeRuleSignatures(int entity) const;

  /// Allocation-free variant, same contract as the positive one.
  const std::vector<uint64_t>& NegativeRuleSignatures(
      int entity, SignatureScratch* scratch) const;

  /// True if the positive generator fell back to anchor-only indexing.
  bool anchor_only() const { return anchor_only_; }
  size_t anchor_predicate() const { return anchor_; }

 private:
  /// The size PredicateSignatures(pred_idx, entity) would return, read
  /// off the CSR arena sizes without hashing or allocating. Used by the
  /// constructor's average-count pass (the tuple-vs-anchor decision).
  size_t PredicateSignatureCount(size_t pred_idx, int entity) const;

  const PreparedGroup& pg_;
  const std::vector<Predicate>& predicates_;
  Direction dir_;
  uint64_t rule_tag_;
  std::vector<int> ontology_tau_min_;  ///< per predicate (-1 if not ontology)
  /// Per predicate: true when q-gram prefix filtering gives no guarantee
  /// for SOME entity of the group (its whole string fits in the edit
  /// budget). The decision must be group-global — a per-entity fallback
  /// would be asymmetric and break completeness — so the predicate then
  /// emits one universal signature for every entity.
  std::vector<bool> editsim_universal_;
  std::vector<double> avg_sig_count_;  ///< per predicate
  bool anchor_only_ = false;
  size_t anchor_ = 0;
};

/// 64-bit mixing used to tag signatures; exposed for tests.
uint64_t MixSignature(uint64_t a, uint64_t b);

}  // namespace dime

#endif  // DIME_CORE_SIGNATURE_H_
