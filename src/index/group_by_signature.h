#ifndef DIME_INDEX_GROUP_BY_SIGNATURE_H_
#define DIME_INDEX_GROUP_BY_SIGNATURE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/logging.h"

/// \file group_by_signature.h
/// Groups (signature, id) postings by signature: every entry sorted by
/// signature, ties in input order, i.e. what std::stable_sort by
/// signature gives, but in linear time. Both DIME+ steps run on these
/// groupings: the inverted lists of step 1 (exec/inverted_lists.h) and
/// the pivot signature map of step 3 (internal::PivotSigMap).
///
/// Signatures are uniform 64-bit hashes (MixSignature), so their top bits
/// spread them evenly over buckets:
///  1. count the entries of each bucket, keyed by the top
///     SignatureBucketBits(n) bits of the signature;
///  2. scatter every entry, in input order, straight from the producer
///     into its bucket's slice of the one output array (stable);
///  3. sort each bucket in place by full signature: insertion sort,
///     handing over to a stable O(k log k) sort on a bucket crowded with
///     distinct signatures (keys that share their top bits).
/// The pooled form (exec/group_by_signature.h) runs the same three steps
/// as tasks.

namespace dime {

/// At most 2^17 buckets: one histogram row of the pooled form stays at
/// 512 KB.
inline constexpr unsigned kMaxSignatureBucketBits = 17;

/// Bucket-key bits for `n` entries: the fewest that leave 4-8 entries a
/// bucket on uniform signatures, capped at kMaxSignatureBucketBits.
inline unsigned SignatureBucketBits(size_t n) {
  unsigned bits = 0;
  while (bits < kMaxSignatureBucketBits && (n >> (bits + 3)) != 0) ++bits;
  return bits;
}

inline size_t SignatureBucket(uint64_t sig, unsigned bits) {
  return bits == 0 ? 0 : static_cast<size_t>(sig >> (64 - bits));
}

/// Sorts one bucket [first, last) by signature, ties in input order.
/// Insertion sort costs O(k + moves), which is linear on short buckets
/// and on crowded buckets that hold few distinct signatures (a long list,
/// or one signature on every entity). Once the moves pass 16 per entry
/// (many distinct signatures sharing their top bits), std::stable_sort
/// takes over: the sorted prefix and the untouched rest both keep equal
/// signatures in input order, so the result is the same.
template <typename Entry>
void SortSignatureBucket(Entry* first, Entry* last) {
  constexpr ptrdiff_t kMovesPerEntry = 16;
  if (last - first < 2) return;
  ptrdiff_t budget = kMovesPerEntry * (last - first);
  for (Entry* i = first + 1; i < last; ++i) {
    const Entry v = *i;
    Entry* j = i;
    for (; j > first && v.first < (j - 1)->first; --j) *j = *(j - 1);
    *j = v;
    budget -= i - j;
    if (budget < 0) {
      std::stable_sort(first, last, [](const Entry& a, const Entry& b) {
        return a.first < b.first;
      });
      return;
    }
  }
}

/// Fills `*out` with the `n` entries that `for_each` produces, grouped by
/// signature with ties in input order. `for_each(emit)` must call
/// `emit(signature, id)` once per entry, in input order; it runs twice
/// (count, then scatter), so it must produce the same entries both times.
template <typename Id, typename ForEach>
void GroupBySignature(size_t n, const ForEach& for_each,
                      std::vector<std::pair<uint64_t, Id>>* out) {
  const unsigned bits = SignatureBucketBits(n);
  // Counts, then each bucket's write cursor; after the scatter, cursor[b]
  // is the end of bucket b.
  std::vector<size_t> cursor(size_t{1} << bits, 0);
  for_each([&cursor, bits](uint64_t sig, Id) {
    ++cursor[SignatureBucket(sig, bits)];
  });
  size_t offset = 0;
  for (size_t& c : cursor) {
    const size_t count = c;
    c = offset;
    offset += count;
  }
  DIME_CHECK_EQ(offset, n);
  out->resize(n);
  std::pair<uint64_t, Id>* dst = out->data();
  for_each([&cursor, dst, bits](uint64_t sig, Id id) {
    dst[cursor[SignatureBucket(sig, bits)]++] = {sig, id};
  });
  size_t begin = 0;
  for (size_t end : cursor) {
    SortSignatureBucket(dst + begin, dst + end);
    begin = end;
  }
}

}  // namespace dime

#endif  // DIME_INDEX_GROUP_BY_SIGNATURE_H_
