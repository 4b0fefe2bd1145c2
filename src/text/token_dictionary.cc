#include "src/text/token_dictionary.h"

#include <algorithm>
#include <numeric>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace dime {

TokenId TokenDictionary::Intern(std::string_view token) {
  auto it = index_.find(std::string(token));
  if (it != index_.end()) return it->second;
  TokenId id = static_cast<TokenId>(tokens_.size());
  tokens_.emplace_back(token);
  doc_freq_.push_back(0);
  index_.emplace(tokens_.back(), id);
  return id;
}

TokenId TokenDictionary::Lookup(std::string_view token) const {
  auto it = index_.find(std::string(token));
  return it == index_.end() ? kNoToken : it->second;
}

std::vector<TokenId> TokenDictionary::InternDocument(
    const std::vector<std::string>& tokens) {
  std::vector<TokenId> ids;
  ids.reserve(tokens.size());
  for (const std::string& t : tokens) ids.push_back(Intern(t));
  // Bump document frequency once per distinct token in this document.
  std::vector<TokenId> distinct = ids;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  for (TokenId id : distinct) ++doc_freq_[id];
  return ids;
}

void TokenDictionary::BuildGlobalOrder() {
  std::vector<TokenId> order(tokens_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](TokenId a, TokenId b) {
    if (doc_freq_[a] != doc_freq_[b]) return doc_freq_[a] < doc_freq_[b];
    return a < b;
  });
  rank_.assign(tokens_.size(), 0);
  for (uint32_t r = 0; r < order.size(); ++r) rank_[order[r]] = r;
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
  std::vector<uint32_t> by_rank(tokens_.size(), 0);
  for (TokenId id = 0; id < tokens_.size(); ++id) {
    by_rank[rank_[id]] = doc_freq_[id];
  }
  return by_rank;
}

std::vector<TokenId> TokenDictionary::SortByRank(
    std::vector<TokenId> ids) const {
  if (!HasGlobalOrder()) {
    DIME_LOG(WARNING) << "SortByRank before BuildGlobalOrder(); "
                         "degrading to insertion order";
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  }
  std::sort(ids.begin(), ids.end(), [this](TokenId a, TokenId b) {
    return rank_[a] < rank_[b];
  });
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace dime
