#include "src/server/result_cache.h"

namespace dime {

ResultCache::ResultCache(size_t capacity) : capacity_(capacity) {}

std::shared_ptr<const DimeResult> ResultCache::Lookup(const Fingerprint& key) {
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  ++counters_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh: move to front
  return it->second->value;
}

void ResultCache::Insert(const Fingerprint& key,
                         std::shared_ptr<const DimeResult> value) {
  if (capacity_ == 0) return;
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent misses on the same key both compute and both insert;
    // refresh rather than duplicate.
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++counters_.evictions;
  }
  lru_.push_front(Entry{key, std::move(value)});
  index_[key] = lru_.begin();
  ++counters_.insertions;
}

ResultCache::Counters ResultCache::counters() const {
  MutexLock lock(&mu_);
  Counters out = counters_;
  out.size = lru_.size();
  return out;
}

}  // namespace dime
