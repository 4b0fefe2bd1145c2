#include "src/index/inverted_index.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/index/group_by_signature.h"

namespace dime {

void InvertedIndex::Add(int entity, const std::vector<uint64_t>& sigs) {
  DIME_CHECK(!frozen_) << "InvertedIndex::Add after first query";
  DIME_CHECK_GE(entity, 0);
  for (uint64_t sig : sigs) postings_.emplace_back(sig, entity);
}

void InvertedIndex::EnsureFrozen() const {
  if (frozen_) return;
  frozen_ = true;
  // Stable: postings with the same signature keep insertion order, i.e.
  // each run reads exactly like the per-list append order of a hash-map
  // build, so enumeration order is deterministic.
  std::vector<std::pair<uint64_t, int>> grouped;
  GroupBySignature<int>(
      postings_.size(),
      [this](const auto& emit) {
        for (const std::pair<uint64_t, int>& p : postings_) {
          emit(p.first, p.second);
        }
      },
      &grouped);
  std::vector<std::pair<uint64_t, int>>().swap(postings_);
  entities_.reserve(grouped.size());
  list_starts_.push_back(0);
  for (size_t i = 0; i < grouped.size(); ++i) {
    if (i > 0 && grouped[i].first != grouped[i - 1].first) {
      list_starts_.push_back(i);
    }
    entities_.push_back(grouped[i].second);
  }
  if (!grouped.empty()) list_starts_.push_back(grouped.size());
}

std::vector<uint32_t> InvertedIndex::EnumerationOrder() const {
  const uint64_t* starts = list_starts_.data();
  const int* ents = entities_.data();
  std::vector<uint32_t> order;
  const size_t num = list_starts_.size() - 1;
  for (size_t l = 0; l < num; ++l) {
    if (starts[l + 1] - starts[l] > 1) {
      order.push_back(static_cast<uint32_t>(l));
    }
  }
  std::sort(order.begin(), order.end(),
            [starts, ents](uint32_t a, uint32_t b) {
              uint64_t la = starts[a + 1] - starts[a];
              uint64_t lb = starts[b + 1] - starts[b];
              if (la != lb) return la < lb;
              int fa = ents[starts[a]];
              int fb = ents[starts[b]];
              if (fa != fb) return fa < fb;  // deterministic tie-break
              return a < b;  // then signature-sorted position
            });
  return order;
}

void InvertedIndex::ForEachList(
    const std::function<bool(const int*, size_t)>& callback) const {
  EnsureFrozen();
  for (uint32_t l : EnumerationOrder()) {
    const size_t begin = list_starts_[l], end = list_starts_[l + 1];
    if (!callback(entities_.data() + begin, end - begin)) return;
  }
}

size_t InvertedIndex::CandidateVolume() const {
  EnsureFrozen();
  size_t volume = 0;
  for (size_t l = 0; l + 1 < list_starts_.size(); ++l) {
    size_t len = list_starts_[l + 1] - list_starts_[l];
    volume += len * (len - 1) / 2;
  }
  return volume;
}

size_t InvertedIndex::num_lists() const {
  EnsureFrozen();
  return list_starts_.size() - 1;
}

}  // namespace dime
