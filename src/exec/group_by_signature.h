#ifndef DIME_EXEC_GROUP_BY_SIGNATURE_H_
#define DIME_EXEC_GROUP_BY_SIGNATURE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/exec/pool.h"
#include "src/index/group_by_signature.h"

/// \file group_by_signature.h
/// Pooled form of GroupBySignature (index/group_by_signature.h) for the
/// DIME+ engine: the same output, byte for byte, from the same three
/// steps run as tasks. The input is a sequence of parts (per-chunk
/// posting vectors in step 1, ranges of pivot signatures in step 3),
/// read in place. Consecutive parts form one slice per executor:
///  1. one task per slice counts the slice's entries per bucket;
///  2. one task per slice scatters its parts into its share of each
///     bucket (a bucket holds slice 0's entries, then slice 1's, ..., so
///     the scatter is stable), releasing each part once scattered;
///  3. one task per range of buckets (ranges of near-equal entry counts)
///     sorts its buckets and runs the caller's `on_range` on them.
/// Below kPooledGroupingMin entries it runs the serial form inline.
/// SortByKey, a counting sort by small integer keys, orders step 1's
/// lists (exec/inverted_lists.h) with the same per-slice tasks.

namespace dime {
namespace exec {

inline constexpr size_t kPooledGroupingMin = size_t{1} << 15;

namespace internal_grouping {

/// Runs fn(0) .. fn(count - 1) as tasks and rethrows the first fault.
template <typename Fn>
void RunTasks(WorkStealingPool* pool, size_t count, const Fn& fn) {
  TaskGroup group(pool);
  for (size_t i = 0; i < count; ++i) group.Spawn([&fn, i] { fn(i); });
  group.Wait();
  if (group.exception() != nullptr) std::rethrow_exception(group.exception());
}

}  // namespace internal_grouping

/// Fills `*out` with the `n` entries of parts 0 .. num_parts - 1 (in that
/// order), grouped by signature with ties in input order.
///  * `for_each_in_part(p, emit)` calls `emit(signature, id)` once per
///    entry of part p, in order. It runs twice per part, each time inside
///    one task, so parts are read concurrently.
///  * `release_part(p)` runs once part p has been scattered; the caller
///    may free its source there.
///  * `on_range(begin, end)` runs once per range of whole buckets, inside
///    the task that sorted them; the ranges tile [0, n) in order. Its
///    results come back in range order.
template <typename Id, typename ForEachInPart, typename ReleasePart,
          typename OnRange>
auto GroupBySignature(WorkStealingPool* pool, size_t n, size_t num_parts,
                      const ForEachInPart& for_each_in_part,
                      const ReleasePart& release_part,
                      std::vector<std::pair<uint64_t, Id>>* out,
                      const OnRange& on_range)
    -> std::vector<decltype(on_range(size_t{0}, size_t{0}))> {
  using Entry = std::pair<uint64_t, Id>;
  std::vector<decltype(on_range(size_t{0}, size_t{0}))> results;
  if (n < kPooledGroupingMin) {
    dime::GroupBySignature<Id>(
        n,
        [&for_each_in_part, num_parts](const auto& emit) {
          for (size_t p = 0; p < num_parts; ++p) for_each_in_part(p, emit);
        },
        out);
    for (size_t p = 0; p < num_parts; ++p) release_part(p);
    results.push_back(on_range(size_t{0}, n));
    return results;
  }
  DIME_CHECK_LE(n, std::numeric_limits<uint32_t>::max());
  const unsigned bits = SignatureBucketBits(n);
  const size_t buckets = size_t{1} << bits;

  // Consecutive parts form one slice per executor, so the histograms
  // (one row of `buckets` counters per slice) stay small.
  const size_t num_slices =
      std::min<size_t>(num_parts, pool->thread_count());
  auto for_each_part_in_slice = [num_parts, num_slices](size_t s,
                                                        const auto& fn) {
    for (size_t p = num_parts * s / num_slices;
         p < num_parts * (s + 1) / num_slices; ++p) {
      fn(p);
    }
  };

  // Step 1: per-slice counts; cursors[s * buckets + b] counts slice s's
  // entries in bucket b.
  std::vector<uint32_t> cursors(num_slices * buckets, 0);
  internal_grouping::RunTasks(pool, num_slices, [&](size_t s) {
    uint32_t* count = cursors.data() + s * buckets;
    for_each_part_in_slice(s, [&](size_t p) {
      for_each_in_part(p, [count, bits](uint64_t sig, Id) {
        ++count[SignatureBucket(sig, bits)];
      });
    });
  });
  // Counts become write cursors in (bucket, slice) order: bucket b holds
  // slice 0's entries, then slice 1's, and so on. Rows are walked whole
  // so every pass reads memory in order.
  std::vector<size_t> bucket_end(buckets, 0);
  for (size_t s = 0; s < num_slices; ++s) {
    const uint32_t* count = cursors.data() + s * buckets;
    for (size_t b = 0; b < buckets; ++b) bucket_end[b] += count[b];
  }
  std::vector<uint32_t> next(buckets);
  size_t offset = 0;
  for (size_t b = 0; b < buckets; ++b) {
    next[b] = static_cast<uint32_t>(offset);
    offset += bucket_end[b];
    bucket_end[b] = offset;
  }
  DIME_CHECK_EQ(offset, n);
  for (size_t s = 0; s < num_slices; ++s) {
    uint32_t* cursor = cursors.data() + s * buckets;
    for (size_t b = 0; b < buckets; ++b) {
      const uint32_t count = cursor[b];
      cursor[b] = next[b];
      next[b] += count;
    }
  }

  // Step 2: scatter each slice straight into the output, releasing every
  // part as soon as it has been scattered.
  out->resize(n);
  Entry* dst = out->data();
  internal_grouping::RunTasks(pool, num_slices, [&](size_t s) {
    uint32_t* cursor = cursors.data() + s * buckets;
    for_each_part_in_slice(s, [&](size_t p) {
      for_each_in_part(p, [cursor, dst, bits](uint64_t sig, Id id) {
        dst[cursor[SignatureBucket(sig, bits)]++] = {sig, id};
      });
      release_part(p);
    });
  });
  std::vector<uint32_t>().swap(cursors);

  // Step 3: sort bucket ranges of about n / num_ranges entries each.
  const size_t num_ranges =
      std::min<size_t>(buckets, 4 * size_t{pool->thread_count()});
  std::vector<size_t> first_bucket(num_ranges + 1, buckets);
  first_bucket[0] = 0;
  for (size_t r = 1; r < num_ranges; ++r) {
    first_bucket[r] = static_cast<size_t>(
        std::upper_bound(bucket_end.begin(), bucket_end.end(),
                         n * r / num_ranges) -
        bucket_end.begin());
  }
  auto bucket_begin = [&bucket_end](size_t b) {
    return b == 0 ? size_t{0} : bucket_end[b - 1];
  };
  results.resize(num_ranges);
  internal_grouping::RunTasks(pool, num_ranges, [&](size_t r) {
    for (size_t b = first_bucket[r]; b < first_bucket[r + 1]; ++b) {
      SortSignatureBucket(dst + bucket_begin(b), dst + bucket_end[b]);
    }
    results[r] = on_range(bucket_begin(first_bucket[r]),
                          bucket_begin(first_bucket[r + 1]));
  });
  return results;
}

/// Fills `*out` with the elements of `in` sorted by key(x), a value in
/// [0, num_keys), ties in input order: a counting sort whose counting and
/// scatter passes run as one task per slice of `in`, as in
/// GroupBySignature. A slice gets at least max(num_keys, 2^14) elements,
/// which keeps the per-slice histograms no larger than the input.
template <typename T, typename Key>
void SortByKey(WorkStealingPool* pool, const std::vector<T>& in,
               size_t num_keys, const Key& key, std::vector<T>* out) {
  const size_t n = in.size();
  DIME_CHECK_LE(n, std::numeric_limits<uint32_t>::max());
  const size_t num_slices = std::clamp<size_t>(
      n / std::max<size_t>(num_keys, size_t{1} << 14), 1,
      pool->thread_count());
  auto slice_begin = [n, num_slices](size_t s) { return n * s / num_slices; };
  // cursors[s * num_keys + k] counts slice s's elements of key k, then
  // becomes their write cursor: key k holds slice 0's elements, then
  // slice 1's, and so on.
  std::vector<uint32_t> cursors(num_slices * num_keys, 0);
  internal_grouping::RunTasks(pool, num_slices, [&](size_t s) {
    uint32_t* count = cursors.data() + s * num_keys;
    for (size_t i = slice_begin(s); i < slice_begin(s + 1); ++i) {
      ++count[key(in[i])];
    }
  });
  uint32_t offset = 0;
  for (size_t k = 0; k < num_keys; ++k) {
    for (size_t s = 0; s < num_slices; ++s) {
      uint32_t& c = cursors[s * num_keys + k];
      const uint32_t count = c;
      c = offset;
      offset += count;
    }
  }
  out->resize(n);
  T* dst = out->data();
  internal_grouping::RunTasks(pool, num_slices, [&](size_t s) {
    uint32_t* cursor = cursors.data() + s * num_keys;
    for (size_t i = slice_begin(s); i < slice_begin(s + 1); ++i) {
      dst[cursor[key(in[i])]++] = in[i];
    }
  });
}

/// GroupBySignature with nothing to release or run per range.
template <typename Id, typename ForEachInPart>
void GroupBySignature(WorkStealingPool* pool, size_t n, size_t num_parts,
                      const ForEachInPart& for_each_in_part,
                      std::vector<std::pair<uint64_t, Id>>* out) {
  GroupBySignature<Id>(
      pool, n, num_parts, for_each_in_part, [](size_t) {}, out,
      [](size_t, size_t) { return 0; });
}

}  // namespace exec
}  // namespace dime

#endif  // DIME_EXEC_GROUP_BY_SIGNATURE_H_
