#ifndef DIME_TEXT_TOKENIZER_H_
#define DIME_TEXT_TOKENIZER_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

/// \file tokenizer.h
/// Tokenization primitives for the set-based and character-based similarity
/// functions (Section II of the paper). Set-based similarity first "splits
/// each value into a set of tokens"; character-based similarity (edit
/// distance) is supported through q-gram extraction for signature
/// generation (Section IV-B).

namespace dime {

/// Splits on runs of whitespace; tokens are returned verbatim.
std::vector<std::string> WhitespaceTokenize(std::string_view text);

/// Splits into lower-cased maximal alphanumeric runs ("KATARA: A data..."
/// -> {"katara", "a", "data", ...}). This is the default tokenizer for
/// free-text attributes such as Title and Description.
std::vector<std::string> WordTokenize(std::string_view text);

/// Calls `fn(token)` for each token of WordTokenize(text), in order, as a
/// view of `*scratch`, the reused buffer each token is lower-cased into.
template <typename Fn>
void ForEachWord(std::string_view text, std::string* scratch, Fn&& fn) {
  scratch->clear();
  for (char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      scratch->push_back(static_cast<char>(std::tolower(u)));
    } else if (!scratch->empty()) {
      fn(std::string_view(*scratch));
      scratch->clear();
    }
  }
  if (!scratch->empty()) fn(std::string_view(*scratch));
}

/// Like WordTokenize but deduplicates tokens, preserving first-seen order
/// (set semantics for set-based similarity).
std::vector<std::string> WordTokenizeUnique(std::string_view text);

/// Extracts the positional q-grams of `text` (without padding):
/// "abcd", q=2 -> {"ab", "bc", "cd"}. If `text` is shorter than q the whole
/// string is returned as a single gram. Used by edit-distance signatures.
std::vector<std::string> QGrams(std::string_view text, int q);

/// Calls `fn(gram)` for each gram of QGrams(text, q), in order, as a view
/// into `text`.
template <typename Fn>
void ForEachQGram(std::string_view text, int q, Fn&& fn) {
  if (text.empty() || q <= 0) return;
  const size_t len = static_cast<size_t>(q);
  if (text.size() <= len) {
    fn(text);
    return;
  }
  for (size_t i = 0; i + len <= text.size(); ++i) fn(text.substr(i, len));
}

}  // namespace dime

#endif  // DIME_TEXT_TOKENIZER_H_
