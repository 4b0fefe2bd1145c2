#include "src/index/inverted_index.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/sim/rank_span.h"
#include "src/sim/set_similarity.h"

namespace dime {
namespace {

// Borrowed rank-span view over one frozen list. Entity ids are checked
// non-negative on Add, so the int run reinterprets losslessly as the
// uint32 ranks the sim kernels take.
RankSpan ListSpan(const int* ents, const uint64_t* starts, size_t l) {
  const int* begin = ents + starts[l];
  const size_t len = static_cast<size_t>(starts[l + 1] - starts[l]);
#ifndef NDEBUG
  for (size_t i = 1; i < len; ++i) {
    DIME_CHECK_LT(begin[i - 1], begin[i])
        << "ListOverlap on a non-ascending list (entities must be Add()ed "
        << "in ascending id order)";
  }
#endif
  return RankSpan(reinterpret_cast<const uint32_t*>(begin), len);
}

}  // namespace

void InvertedIndex::Add(int entity, const std::vector<uint64_t>& sigs) {
  DIME_CHECK(!frozen_) << "InvertedIndex::Add after first query";
  DIME_CHECK_GE(entity, 0);
  for (uint64_t sig : sigs) postings_.emplace_back(sig, entity);
  if (static_cast<size_t>(entity) >= sig_counts_.size()) {
    sig_counts_.resize(static_cast<size_t>(entity) + 1, 0);
  }
  sig_counts_[entity] += static_cast<uint32_t>(sigs.size());
}

void InvertedIndex::EnsureFrozen() const {
  if (frozen_) return;
  frozen_ = true;
  // Stable: postings with the same signature keep insertion order, i.e.
  // each run reads exactly like the per-list append order of a hash-map
  // build. Determinism here is what makes a dumped frozen index
  // re-adoptable bit-for-bit.
  std::stable_sort(postings_.begin(), postings_.end(),
                   [](const std::pair<uint64_t, int>& a,
                      const std::pair<uint64_t, int>& b) {
                     return a.first < b.first;
                   });
  entities_.reserve(postings_.size());
  list_starts_.push_back(0);
  for (size_t i = 0; i < postings_.size(); ++i) {
    if (i > 0 && postings_[i].first != postings_[i - 1].first) {
      list_starts_.push_back(i);
    }
    entities_.push_back(postings_[i].second);
  }
  if (!postings_.empty()) list_starts_.push_back(postings_.size());
  postings_.clear();
  postings_.shrink_to_fit();
}

InvertedIndex::FrozenView InvertedIndex::FrozenData() const {
  EnsureFrozen();
  if (ext_.list_starts) return ext_;
  FrozenView view;
  view.sig_counts = sig_counts_.data();
  view.sig_counts_len = sig_counts_.size();
  view.list_starts = list_starts_.data();
  view.list_starts_len = list_starts_.size();
  view.entities = entities_.data();
  view.entities_len = entities_.size();
  return view;
}

void InvertedIndex::AdoptFrozen(const FrozenView& view) {
  DIME_CHECK_GE(view.list_starts_len, 1u);
  postings_.clear();
  postings_.shrink_to_fit();
  sig_counts_.clear();
  entities_.clear();
  list_starts_.clear();
  ext_ = view;
  frozen_ = true;
}

std::vector<uint32_t> InvertedIndex::EnumerationOrder(
    bool short_lists_first) const {
  const uint64_t* starts = frozen_starts();
  const int* ents = frozen_entities();
  std::vector<uint32_t> order;
  const size_t num = frozen_num_lists();
  for (size_t l = 0; l < num; ++l) {
    if (starts[l + 1] - starts[l] > 1) {
      order.push_back(static_cast<uint32_t>(l));
    }
  }
  if (short_lists_first) {
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
  }
  return order;
}

void InvertedIndex::ForEachList(
    bool short_lists_first,
    const std::function<bool(const int*, size_t)>& callback) const {
  EnsureFrozen();
  const uint64_t* starts = frozen_starts();
  const int* ents = frozen_entities();
  for (uint32_t l : EnumerationOrder(short_lists_first)) {
    const size_t begin = starts[l], end = starts[l + 1];
    if (!callback(ents + begin, end - begin)) return;
  }
}

size_t InvertedIndex::CandidateVolume() const {
  EnsureFrozen();
  const uint64_t* starts = frozen_starts();
  size_t volume = 0;
  const size_t num = frozen_num_lists();
  for (size_t l = 0; l < num; ++l) {
    size_t len = starts[l + 1] - starts[l];
    volume += len * (len - 1) / 2;
  }
  return volume;
}

size_t InvertedIndex::ListOverlap(size_t l1, size_t l2) const {
  EnsureFrozen();
  DIME_CHECK_LT(l1, frozen_num_lists());
  DIME_CHECK_LT(l2, frozen_num_lists());
  const uint64_t* starts = frozen_starts();
  const int* ents = frozen_entities();
  return IntersectionSize(ListSpan(ents, starts, l1),
                          ListSpan(ents, starts, l2));
}

bool InvertedIndex::ListsShareAtLeast(size_t l1, size_t l2,
                                      size_t required) const {
  EnsureFrozen();
  DIME_CHECK_LT(l1, frozen_num_lists());
  DIME_CHECK_LT(l2, frozen_num_lists());
  const uint64_t* starts = frozen_starts();
  const int* ents = frozen_entities();
  return IntersectionAtLeast(ListSpan(ents, starts, l1),
                             ListSpan(ents, starts, l2), required);
}

size_t InvertedIndex::SignatureCount(int entity) const {
  const uint32_t* counts = ext_.sig_counts ? ext_.sig_counts
                                           : sig_counts_.data();
  const size_t n = ext_.sig_counts ? ext_.sig_counts_len : sig_counts_.size();
  if (entity < 0 || static_cast<size_t>(entity) >= n) return 0;
  return counts[entity];
}

size_t InvertedIndex::num_lists() const {
  EnsureFrozen();
  return frozen_num_lists();
}

}  // namespace dime
