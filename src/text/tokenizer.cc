#include "src/text/tokenizer.h"

#include <cctype>
#include <unordered_set>

namespace dime {

std::vector<std::string> WhitespaceTokenize(std::string_view text) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) tokens.emplace_back(text.substr(start, i - start));
  }
  return tokens;
}

std::vector<std::string> WordTokenize(std::string_view text) {
  std::vector<std::string> tokens;
  std::string scratch;
  ForEachWord(text, &scratch,
              [&tokens](std::string_view t) { tokens.emplace_back(t); });
  return tokens;
}

std::vector<std::string> WordTokenizeUnique(std::string_view text) {
  std::vector<std::string> tokens = WordTokenize(text);
  std::unordered_set<std::string> seen;
  std::vector<std::string> unique;
  unique.reserve(tokens.size());
  for (std::string& t : tokens) {
    if (seen.insert(t).second) unique.push_back(std::move(t));
  }
  return unique;
}

std::vector<std::string> QGrams(std::string_view text, int q) {
  std::vector<std::string> grams;
  ForEachQGram(text, q, [&grams](std::string_view g) { grams.emplace_back(g); });
  return grams;
}

}  // namespace dime
