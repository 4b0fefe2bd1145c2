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
/// the first query freezes the index by stable-sorting the arena by
/// signature, after which each list is a contiguous run enumerated with
/// sequential reads — no hash-map nodes, no per-list allocations. The
/// stable sort preserves insertion order within each list. Add() after a
/// query is a programming error (checked).
///
/// The frozen side can also be *borrowed*: AdoptFrozen() points the index
/// at externally owned arrays (the snapshot store maps a previously
/// frozen index straight off disk, zero-copy). Because freezing is a
/// deterministic stable sort, dumping FrozenData() and adopting it back
/// reproduces the exact enumeration order of the original build.

namespace dime {

class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Adds `entity` to the list of every signature in `sigs` and records
  /// |sigs| as the entity's signature count. Entities must be >= 0.
  void Add(int entity, const std::vector<uint64_t>& sigs);

  /// Streams whole posting lists (only those with >= 2 entries), handing
  /// the caller the contiguous entity run of each list; every pair on a
  /// list is a candidate. With `short_lists_first`, lists are visited in
  /// ascending length order — pairs sharing rare signatures (likely
  /// similar) come first; otherwise in signature order. Callers that can
  /// decide a list wholesale (e.g. every member already in one partition)
  /// skip its |l|(|l|-1)/2 pairs in O(|l|). The callback returns false to
  /// stop.
  void ForEachList(
      bool short_lists_first,
      const std::function<bool(const int*, size_t)>& callback) const;

  /// Total candidate-pair instances (sum over lists of |list| choose 2).
  size_t CandidateVolume() const;

  /// Intersection size of frozen lists `l1` and `l2` (indexes into the
  /// run table, < num_lists()), computed with the sim layer's dispatching
  /// set kernel (AVX2 block intersection on dense lists, scalar merge
  /// otherwise). Lists must be strictly ascending, which holds whenever
  /// entities were Add()ed in ascending id order — the PrepareGroup /
  /// artifact build order (checked in debug builds).
  size_t ListOverlap(size_t l1, size_t l2) const;

  /// Threshold-aware twin: true iff lists `l1` and `l2` share at least
  /// `required` entities, early-exiting through IntersectionAtLeast
  /// (cannot-reach / cannot-miss, galloping on skewed lengths). Decision
  /// is identical to `ListOverlap(l1, l2) >= required`.
  bool ListsShareAtLeast(size_t l1, size_t l2, size_t required) const;

  /// Signature count of an entity previously Add()ed (0 otherwise).
  size_t SignatureCount(int entity) const;

  /// Number of distinct signatures (lists of any length).
  size_t num_lists() const;

  /// Borrowed view of the frozen state, for serialization. `list_starts`
  /// always has num_lists + 1 entries (a single 0 for an empty index);
  /// list i spans entities[list_starts[i] .. list_starts[i + 1]).
  /// Pointers are owned by the index (or by whatever AdoptFrozen borrowed
  /// from) and are stable until the index is destroyed.
  struct FrozenView {
    const uint32_t* sig_counts = nullptr;  // indexed by entity id
    size_t sig_counts_len = 0;
    const uint64_t* list_starts = nullptr;
    size_t list_starts_len = 0;  // num_lists + 1, always >= 1
    const int* entities = nullptr;
    size_t entities_len = 0;
  };

  /// Freezes (if not already) and exposes the frozen arrays.
  FrozenView FrozenData() const;

  /// Points the frozen side at externally owned arrays (snapshot load).
  /// Requires view.list_starts_len >= 1 and the backing to outlive the
  /// index. Replaces any built state; Add() afterwards is an error.
  void AdoptFrozen(const FrozenView& view);

 private:
  /// Sorts the arena into per-signature runs; idempotent.
  void EnsureFrozen() const;
  /// Indexes (into the frozen run table) of lists with >= 2 entries, in
  /// enumeration order.
  std::vector<uint32_t> EnumerationOrder(bool short_lists_first) const;

  // Frozen-side accessors, mode-independent. Callers must EnsureFrozen()
  // first.
  const int* frozen_entities() const {
    return ext_.entities ? ext_.entities : entities_.data();
  }
  const uint64_t* frozen_starts() const {
    return ext_.list_starts ? ext_.list_starts : list_starts_.data();
  }
  size_t frozen_num_lists() const {
    if (ext_.list_starts) return ext_.list_starts_len - 1;
    return list_starts_.empty() ? 0 : list_starts_.size() - 1;
  }

  // Build side: (signature, entity) in insertion order. Cleared on freeze.
  mutable std::vector<std::pair<uint64_t, int>> postings_;
  std::vector<uint32_t> sig_counts_;  // indexed by entity id

  // Frozen side, owned mode: entities_ holds the concatenated lists; list
  // i spans entities_[list_starts_[i] .. list_starts_[i + 1]).
  mutable bool frozen_ = false;
  mutable std::vector<int> entities_;
  mutable std::vector<uint64_t> list_starts_;
  // Frozen side, borrowed mode (pointers null when owned).
  FrozenView ext_;
};

}  // namespace dime

#endif  // DIME_INDEX_INVERTED_INDEX_H_
