#ifndef DIME_INDEX_INVERTED_INDEX_H_
#define DIME_INDEX_INVERTED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

/// \file inverted_index.h
/// Signature -> entity inverted index (Section IV-A). Every pair of
/// entities on the same list is a candidate, once per list it shares.
///
/// Postings are kept in one flat (signature, entity) arena. Add() appends;
/// the first query freezes the index by grouping the arena by signature
/// (GroupBySignature, a linear-time bucket scatter), after which each list
/// is a contiguous run enumerated with sequential reads — no hash-map
/// nodes, no per-list allocations. The grouping is stable: each list keeps
/// insertion order. Add() after a query is a programming error (checked).

namespace dime {

class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Adds `entity` to the list of every signature in `sigs`. Entities
  /// must be >= 0.
  void Add(int entity, const std::vector<uint64_t>& sigs);

  /// Streams whole posting lists (only those with >= 2 entries), handing
  /// the caller the contiguous entity run of each list; every pair on a
  /// list is a candidate. Lists are visited in ascending length order
  /// (ties by first entity, then signature) — pairs sharing rare
  /// signatures (likely similar) come first. Callers that can decide a
  /// list wholesale (e.g. every member already in one partition) skip its
  /// |l|(|l|-1)/2 pairs in O(|l|). The callback returns false to stop.
  void ForEachList(
      const std::function<bool(const int*, size_t)>& callback) const;

  /// Total candidate-pair instances (sum over lists of |list| choose 2).
  size_t CandidateVolume() const;

  /// Number of distinct signatures (lists of any length).
  size_t num_lists() const;

 private:
  /// Groups the arena into per-signature runs; idempotent.
  void EnsureFrozen() const;
  /// Indexes (into the frozen run table) of lists with >= 2 entries, in
  /// enumeration order.
  std::vector<uint32_t> EnumerationOrder() const;

  // Build side: (signature, entity) in insertion order. Cleared on freeze.
  mutable std::vector<std::pair<uint64_t, int>> postings_;

  // Frozen side: entities_ holds the concatenated lists; list i spans
  // entities_[list_starts_[i] .. list_starts_[i + 1]).
  mutable bool frozen_ = false;
  mutable std::vector<int> entities_;
  mutable std::vector<uint64_t> list_starts_;
};

}  // namespace dime

#endif  // DIME_INDEX_INVERTED_INDEX_H_
