#ifndef DIME_TEXT_TOKEN_DICTIONARY_H_
#define DIME_TEXT_TOKEN_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

/// \file token_dictionary.h
/// Interns tokens to dense integer ids and maintains document frequencies.
///
/// Signature generation (Section IV-B of the paper) requires "a global
/// ordering on all the tokens (e.g., document frequency)": prefix filtering
/// keeps the rarest tokens of each value, so candidate lists stay short.
/// TokenDictionary provides that ordering via `GlobalRank`, where rank 0 is
/// the rarest token (ties broken by token id for determinism).

namespace dime {

using TokenId = uint32_t;

class TokenDictionary {
 public:
  TokenDictionary() = default;

  /// Interns `token`, returning its stable id. Does not affect frequencies.
  TokenId Intern(std::string_view token);

  /// Returns the id of `token` or `kNoToken` if absent.
  static constexpr TokenId kNoToken = static_cast<TokenId>(-1);
  TokenId Lookup(std::string_view token) const;

  /// Interns every token of one document (one attribute value) and bumps
  /// each distinct token's document frequency once. Returns the ids in
  /// input order (duplicates preserved).
  std::vector<TokenId> InternDocument(const std::vector<std::string>& tokens);

  /// Number of distinct tokens.
  size_t size() const { return tokens_.size(); }

  /// The token string for `id`.
  const std::string& Token(TokenId id) const { return tokens_[id]; }

  /// Document frequency of `id`.
  uint32_t DocumentFrequency(TokenId id) const { return doc_freq_[id]; }

  /// Finalizes the global ordering: ascending document frequency, ties by
  /// id. Must be called after all documents are interned and before
  /// GlobalRank. Calling it again recomputes the ordering.
  void BuildGlobalOrder();

  /// Rank of `id` in the global ordering (0 = rarest). Requires
  /// BuildGlobalOrder() to have been called.
  uint32_t GlobalRank(TokenId id) const { return rank_[id]; }

  /// Document frequencies indexed by rank (ascending, by construction).
  /// Requires BuildGlobalOrder().
  std::vector<uint32_t> DocumentFrequencyByRank() const;

  /// True once BuildGlobalOrder has been called.
  bool HasGlobalOrder() const { return !rank_.empty() || tokens_.empty(); }

  /// Sorts a token-id list by global rank ascending (rarest first) and
  /// removes duplicates. This is the canonical per-value representation
  /// used by prefix signatures and fast set-similarity verification.
  std::vector<TokenId> SortByRank(std::vector<TokenId> ids) const;

 private:
  std::unordered_map<std::string, TokenId> index_;
  std::vector<std::string> tokens_;
  std::vector<uint32_t> doc_freq_;
  std::vector<uint32_t> rank_;
};

}  // namespace dime

#endif  // DIME_TEXT_TOKEN_DICTIONARY_H_
