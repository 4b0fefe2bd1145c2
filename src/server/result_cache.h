#ifndef DIME_SERVER_RESULT_CACHE_H_
#define DIME_SERVER_RESULT_CACHE_H_

#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/common/fingerprint.h"
#include "src/common/mutex.h"
#include "src/core/dime.h"

/// \file result_cache.h
/// The serving layer's result cache: repeated or overlapping "check group
/// G" requests skip the engine entirely when the *content* of the request
/// is identical to one already answered.
///
/// Cache key. A request's outcome is fully determined by (engine, rule
/// context, group content): the engines are deterministic, and the engine
/// stays in the key because result->stats differ by engine. The key
/// (DimeService::RequestFingerprint) combines three 128-bit parts:
///   - the engine name;
///   - the epoch's context key, computed once per epoch over the schema,
///     the canonical rule text and every ontology ref's mode and tree
///     (CorpusEpoch::context_key);
///   - the group content key, a hash over the group's raw fields, each
///     length-prefixed (CorpusEpoch::GroupKey; memoized per resident
///     group, hashed once per request for inline groups).
/// Hashing content instead of the client's group *name* means a re-crawled
/// page with identical entities still hits, and a page that changed by one
/// entity misses (no stale answers). Because no epoch identity is folded
/// in, the cache survives corpus swaps: a snapshot reload or delta merge
/// keeps every entry whose context and group content did not change, and
/// anything that did change simply stops matching.
///
/// Only complete (result.ok()) results are inserted: a deadline-truncated
/// scrollbar is valid but partial, and caching it would pin the partial
/// answer for future callers with laxer deadlines.
///
/// Collisions: two distinct requests colliding on all 128 bits is
/// vanishingly unlikely at any realistic cache size; we accept that
/// instead of storing full serializations, which would multiply the
/// cache's memory footprint. The key encoding itself is injective (every
/// field is length-prefixed, values are hashed raw, not sanitized), so
/// distinct requests differ in the hashed input, never only in a lossy
/// rendering of it.

namespace dime {

/// Thread-safe LRU cache from request fingerprint to a completed engine
/// result. Values are shared_ptr<const ...> so a hit can be returned (and
/// later evicted) without copying the result's vectors under the lock.
class ResultCache {
 public:
  /// capacity == 0 disables the cache: Lookup always misses (and counts
  /// the miss, so /stats still shows traffic), Insert is a no-op.
  explicit ResultCache(size_t capacity);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The cached result for `key`, or nullptr. A hit refreshes the entry's
  /// LRU position. Counts one hit or one miss.
  std::shared_ptr<const DimeResult> Lookup(const Fingerprint& key)
      DIME_EXCLUDES(mu_);

  /// Inserts (or refreshes) `key`. Evicts the least-recently-used entry
  /// when at capacity. Inserting a result that is not ok() is a caller
  /// bug — enforced with DIME_DCHECK at the call site's layer.
  void Insert(const Fingerprint& key, std::shared_ptr<const DimeResult> value)
      DIME_EXCLUDES(mu_);

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    size_t size = 0;
  };
  Counters counters() const DIME_EXCLUDES(mu_);

  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    Fingerprint key;
    std::shared_ptr<const DimeResult> value;
  };
  using LruList = std::list<Entry>;

  const size_t capacity_;
  mutable Mutex mu_;
  /// Most-recently-used at the front.
  LruList lru_ DIME_GUARDED_BY(mu_);
  std::unordered_map<Fingerprint, LruList::iterator, FingerprintHash> index_
      DIME_GUARDED_BY(mu_);
  Counters counters_ DIME_GUARDED_BY(mu_);
};

}  // namespace dime

#endif  // DIME_SERVER_RESULT_CACHE_H_
