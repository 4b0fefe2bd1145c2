#ifndef DIME_TEXT_TOKEN_DICTIONARY_H_
#define DIME_TEXT_TOKEN_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file token_dictionary.h
/// Interns tokens to dense integer ids and maintains document frequencies.
///
/// Signature generation (Section IV-B of the paper) requires "a global
/// ordering on all the tokens (e.g., document frequency)": prefix filtering
/// keeps the rarest tokens of each value, so candidate lists stay short.
/// TokenDictionary provides that ordering via `GlobalRank`, where rank 0 is
/// the rarest token (ties broken by token id for determinism).
///
/// The index is an open-addressing table probed by `string_view`: a slot
/// holds `id + 1` (0 = empty), each id keeps its token's hash, and token
/// bytes live in one character arena. A probe allocates nothing, and a
/// rehash never re-reads a token.

namespace dime {

using TokenId = uint32_t;

class TokenDictionary {
 public:
  TokenDictionary() = default;

  /// Interns `token`, returning its stable id. Ids are dense and assigned
  /// in first-seen order. Does not affect frequencies.
  TokenId Intern(std::string_view token);

  /// Returns the id of `token` or `kNoToken` if absent.
  static constexpr TokenId kNoToken = static_cast<TokenId>(-1);
  TokenId Lookup(std::string_view token) const;

  /// Interns every token of one document (one attribute value) and bumps
  /// each distinct token's document frequency once. Returns the ids in
  /// input order (duplicates preserved).
  std::vector<TokenId> InternDocument(const std::vector<std::string>& tokens);

  /// Bumps the document frequency of each of the `n` ids once: one
  /// document's tokens, already deduplicated by the caller.
  void CountDocument(const TokenId* distinct, size_t n);

  /// Interns every token of `other` in `other`'s id order, adds its
  /// document frequencies to this dictionary's, and sets `(*remap)[id]` to
  /// this dictionary's id for each of `other`'s ids. Merging the
  /// dictionaries of consecutive document ranges in range order yields the
  /// ids and frequencies one pass over all the documents would.
  void Merge(const TokenDictionary& other, std::vector<TokenId>* remap);

  /// Pre-sizes for `tokens` distinct tokens of `chars` bytes in total, so
  /// interning up to that many allocates nothing.
  void Reserve(size_t tokens, size_t chars);

  /// Number of distinct tokens.
  size_t size() const { return hashes_.size(); }

  /// The token string for `id`; valid until the next Intern or Merge.
  std::string_view Token(TokenId id) const {
    return std::string_view(chars_).substr(starts_[id],
                                           starts_[id + 1] - starts_[id]);
  }

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
  bool HasGlobalOrder() const { return !rank_.empty() || size() == 0; }

 private:
  /// The id of the token equal to `token` (whose hash is `hash`), or the
  /// empty slot where it would go, as a slot index.
  size_t Probe(std::string_view token, size_t hash) const;
  /// Interns `token` whose hash is already known.
  TokenId InternHashed(std::string_view token, size_t hash);
  /// Resizes the slot table to `slots` (a power of two, more than twice
  /// the size) and re-places every id by its stored hash.
  void Rehash(size_t slots);

  std::string chars_;              ///< all token bytes, in id order
  std::vector<size_t> starts_{0};  ///< token id spans chars_[starts_[id],
                                   ///< starts_[id + 1])
  std::vector<size_t> hashes_;     ///< per id
  std::vector<uint32_t> slots_;    ///< id + 1, 0 = empty; power-of-two size
  std::vector<uint32_t> doc_freq_;
  std::vector<uint32_t> rank_;
};

}  // namespace dime

#endif  // DIME_TEXT_TOKEN_DICTIONARY_H_
