#include "src/text/token_dictionary.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace dime {

namespace {

/// Slots in the first table; the table doubles whenever it would pass
/// half full, so a probe run stays short.
constexpr size_t kInitialSlots = 16;

size_t HashToken(std::string_view token) {
  return std::hash<std::string_view>{}(token);
}

/// The smallest power-of-two table of at least `min_slots` slots.
size_t SlotCount(size_t min_slots) {
  size_t slots = kInitialSlots;
  while (slots < min_slots) slots *= 2;
  return slots;
}

}  // namespace

size_t TokenDictionary::Probe(std::string_view token, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const uint32_t entry = slots_[slot];
    if (entry == 0) return slot;
    const TokenId id = entry - 1;
    if (hashes_[id] == hash && Token(id) == token) return slot;
  }
}

TokenId TokenDictionary::InternHashed(std::string_view token, size_t hash) {
  if (2 * (size() + 1) > slots_.size()) {
    Rehash(SlotCount(std::max(2 * slots_.size(), slots_.capacity())));
  }
  const size_t slot = Probe(token, hash);
  if (slots_[slot] != 0) return slots_[slot] - 1;
  DIME_CHECK_LT(size(), static_cast<size_t>(kNoToken));
  const TokenId id = static_cast<TokenId>(size());
  chars_.append(token);
  starts_.push_back(chars_.size());
  hashes_.push_back(hash);
  doc_freq_.push_back(0);
  slots_[slot] = id + 1;
  return id;
}

void TokenDictionary::Reserve(size_t tokens, size_t chars) {
  chars_.reserve(chars);
  starts_.reserve(tokens + 1);
  hashes_.reserve(tokens);
  doc_freq_.reserve(tokens);
  // Capacity only: the first Intern that needs the table fills it, so
  // the table's pages are first touched by the thread that interns.
  if (slots_.empty()) slots_.reserve(SlotCount(2 * tokens));
}

void TokenDictionary::Rehash(size_t slots) {
  slots_.assign(slots, 0);
  const size_t mask = slots_.size() - 1;
  for (TokenId id = 0; id < size(); ++id) {
    size_t slot = hashes_[id] & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = id + 1;
  }
}

TokenId TokenDictionary::Intern(std::string_view token) {
  return InternHashed(token, HashToken(token));
}

TokenId TokenDictionary::Lookup(std::string_view token) const {
  if (slots_.empty()) return kNoToken;
  const uint32_t entry = slots_[Probe(token, HashToken(token))];
  return entry == 0 ? kNoToken : entry - 1;
}

std::vector<TokenId> TokenDictionary::InternDocument(
    const std::vector<std::string>& tokens) {
  std::vector<TokenId> ids;
  ids.reserve(tokens.size());
  for (const std::string& t : tokens) ids.push_back(Intern(t));
  std::vector<TokenId> distinct = ids;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  CountDocument(distinct.data(), distinct.size());
  return ids;
}

void TokenDictionary::CountDocument(const TokenId* distinct, size_t n) {
  for (size_t i = 0; i < n; ++i) ++doc_freq_[distinct[i]];
}

void TokenDictionary::Merge(const TokenDictionary& other,
                            std::vector<TokenId>* remap) {
  remap->resize(other.size());
  for (TokenId id = 0; id < other.size(); ++id) {
    const TokenId mine = InternHashed(other.Token(id), other.hashes_[id]);
    doc_freq_[mine] += other.doc_freq_[id];
    (*remap)[id] = mine;
  }
}

void TokenDictionary::BuildGlobalOrder() {
  // A counting sort by frequency that visits ids in ascending order, so
  // ties keep id order: rank = position in (frequency, id) order.
  const uint32_t max_df =
      doc_freq_.empty() ? 0
                        : *std::max_element(doc_freq_.begin(), doc_freq_.end());
  std::vector<uint32_t> next(max_df + 2, 0);
  for (uint32_t df : doc_freq_) ++next[df + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  rank_.resize(size());
  for (TokenId id = 0; id < size(); ++id) rank_[id] = next[doc_freq_[id]]++;
}

std::vector<uint32_t> TokenDictionary::DocumentFrequencyByRank() const {
  if (!HasGlobalOrder()) {
    // Missed BuildGlobalOrder() is a caller bug, but not one worth dying
    // for: degrade to insertion order (rank == id) with a warning.
    DIME_LOG(WARNING)
        << "DocumentFrequencyByRank before BuildGlobalOrder(); "
           "degrading to insertion order";
    return doc_freq_;
  }
  std::vector<uint32_t> by_rank(size(), 0);
  for (TokenId id = 0; id < size(); ++id) {
    by_rank[rank_[id]] = doc_freq_[id];
  }
  return by_rank;
}

}  // namespace dime
