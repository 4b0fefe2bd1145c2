#include "src/text/token_dictionary.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dime {
namespace {

TEST(TokenDictionaryTest, InternIsStable) {
  TokenDictionary dict;
  TokenId a = dict.Intern("apple");
  TokenId b = dict.Intern("banana");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("apple"), a);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Token(a), "apple");
}

TEST(TokenDictionaryTest, LookupMissingReturnsSentinel) {
  TokenDictionary dict;
  dict.Intern("x");
  EXPECT_EQ(dict.Lookup("y"), TokenDictionary::kNoToken);
  EXPECT_NE(dict.Lookup("x"), TokenDictionary::kNoToken);
}

TEST(TokenDictionaryTest, DocumentFrequencyCountsOncePerDocument) {
  TokenDictionary dict;
  dict.InternDocument({"a", "a", "b"});
  dict.InternDocument({"a", "c"});
  EXPECT_EQ(dict.DocumentFrequency(dict.Lookup("a")), 2u);  // not 3
  EXPECT_EQ(dict.DocumentFrequency(dict.Lookup("b")), 1u);
  EXPECT_EQ(dict.DocumentFrequency(dict.Lookup("c")), 1u);
}

TEST(TokenDictionaryTest, GlobalOrderIsAscendingFrequency) {
  TokenDictionary dict;
  // "common" in 3 docs, "mid" in 2, "rare" in 1.
  dict.InternDocument({"common", "mid", "rare"});
  dict.InternDocument({"common", "mid"});
  dict.InternDocument({"common"});
  dict.BuildGlobalOrder();
  EXPECT_LT(dict.GlobalRank(dict.Lookup("rare")),
            dict.GlobalRank(dict.Lookup("mid")));
  EXPECT_LT(dict.GlobalRank(dict.Lookup("mid")),
            dict.GlobalRank(dict.Lookup("common")));
}

TEST(TokenDictionaryTest, RanksArePermutation) {
  TokenDictionary dict;
  dict.InternDocument({"a", "b", "c", "d"});
  dict.InternDocument({"b", "d"});
  dict.BuildGlobalOrder();
  std::vector<bool> seen(dict.size(), false);
  for (TokenId id = 0; id < dict.size(); ++id) {
    uint32_t r = dict.GlobalRank(id);
    ASSERT_LT(r, dict.size());
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }
}

TEST(TokenDictionaryTest, IdsStayStableThroughRehashes) {
  // 5000 tokens take the table from 16 slots through nine doublings; every
  // id must keep its first-seen value and its token.
  TokenDictionary dict;
  constexpr uint32_t kTokens = 5000;
  for (uint32_t i = 0; i < kTokens; ++i) {
    ASSERT_EQ(dict.Intern("tok" + std::to_string(i)), i);
  }
  EXPECT_EQ(dict.size(), kTokens);
  for (uint32_t i = 0; i < kTokens; ++i) {
    const std::string token = "tok" + std::to_string(i);
    EXPECT_EQ(dict.Lookup(token), i);
    EXPECT_EQ(dict.Intern(token), i);
    EXPECT_EQ(dict.Token(i), token);
  }
  EXPECT_EQ(dict.size(), kTokens);
}

TEST(TokenDictionaryTest, LookupOfAbsentAndEmptyTokens) {
  TokenDictionary empty;
  EXPECT_EQ(empty.Lookup("x"), TokenDictionary::kNoToken);
  EXPECT_EQ(empty.Lookup(""), TokenDictionary::kNoToken);
  EXPECT_EQ(empty.size(), 0u);

  TokenDictionary dict;
  for (int i = 0; i < 100; ++i) dict.Intern("w" + std::to_string(i));
  EXPECT_EQ(dict.Lookup(""), TokenDictionary::kNoToken);
  EXPECT_EQ(dict.Lookup("w100"), TokenDictionary::kNoToken);
  EXPECT_EQ(dict.Lookup("w"), TokenDictionary::kNoToken);
  // The empty token is a token like any other once interned.
  const TokenId e = dict.Intern("");
  EXPECT_EQ(e, 100u);
  EXPECT_EQ(dict.Lookup(""), e);
  EXPECT_EQ(dict.Token(e), "");
  EXPECT_EQ(dict.size(), 101u);
}

TEST(TokenDictionaryTest, LongAndPrefixSharingTokensStayDistinct) {
  // Longer than any small-string buffer, and prefixes of one another.
  const std::string long_a(100, 'a');
  const std::string long_b = long_a + "b";
  TokenDictionary dict;
  const TokenId a = dict.Intern(long_a);
  const TokenId ab = dict.Intern(long_b);
  const TokenId shorter = dict.Intern(long_a.substr(0, 99));
  const TokenId one = dict.Intern("a");
  EXPECT_EQ(dict.size(), 4u);
  EXPECT_EQ(dict.Lookup(long_a), a);
  EXPECT_EQ(dict.Lookup(long_b), ab);
  EXPECT_EQ(dict.Lookup(long_a.substr(0, 99)), shorter);
  EXPECT_EQ(dict.Lookup("a"), one);
  EXPECT_EQ(dict.Lookup("aa"), TokenDictionary::kNoToken);
  EXPECT_EQ(dict.Token(ab), long_b);
  EXPECT_EQ(dict.Token(shorter).size(), 99u);
}

TEST(TokenDictionaryTest, InternDocumentCountsDistinctTokensOnce) {
  TokenDictionary dict;
  std::vector<TokenId> ids = dict.InternDocument({"x", "y", "x", "z", "x"});
  EXPECT_EQ(ids, (std::vector<TokenId>{0, 1, 0, 2, 0}));  // input order
  dict.InternDocument({"y", "y"});
  dict.InternDocument({});
  EXPECT_EQ(dict.DocumentFrequency(dict.Lookup("x")), 1u);
  EXPECT_EQ(dict.DocumentFrequency(dict.Lookup("y")), 2u);
  EXPECT_EQ(dict.DocumentFrequency(dict.Lookup("z")), 1u);
}

TEST(TokenDictionaryTest, MergeInOrderMatchesOnePass) {
  const std::vector<std::vector<std::string>> docs = {
      {"a", "b"}, {"c", "a"}, {"d", "b", "e"}, {"a", "f"}, {"f", "c"}};
  TokenDictionary serial;
  for (const auto& doc : docs) serial.InternDocument(doc);
  TokenDictionary first, second;
  for (size_t d = 0; d < 2; ++d) first.InternDocument(docs[d]);
  for (size_t d = 2; d < docs.size(); ++d) second.InternDocument(docs[d]);

  TokenDictionary merged;
  std::vector<TokenId> remap;
  merged.Merge(first, &remap);
  EXPECT_EQ(remap, (std::vector<TokenId>{0, 1, 2}));
  merged.Merge(second, &remap);
  ASSERT_EQ(remap.size(), second.size());
  for (TokenId id = 0; id < second.size(); ++id) {
    EXPECT_EQ(remap[id], serial.Lookup(second.Token(id)));
  }
  ASSERT_EQ(merged.size(), serial.size());
  serial.BuildGlobalOrder();
  merged.BuildGlobalOrder();
  for (TokenId id = 0; id < serial.size(); ++id) {
    EXPECT_EQ(merged.Token(id), serial.Token(id));
    EXPECT_EQ(merged.DocumentFrequency(id), serial.DocumentFrequency(id));
    EXPECT_EQ(merged.GlobalRank(id), serial.GlobalRank(id));
  }
}

TEST(TokenDictionaryTest, GlobalOrderBreaksTiesById) {
  TokenDictionary dict;
  dict.InternDocument({"p", "q", "r"});
  dict.InternDocument({"q"});
  dict.BuildGlobalOrder();
  EXPECT_EQ(dict.GlobalRank(dict.Lookup("p")), 0u);
  EXPECT_EQ(dict.GlobalRank(dict.Lookup("r")), 1u);
  EXPECT_EQ(dict.GlobalRank(dict.Lookup("q")), 2u);
  EXPECT_EQ(dict.DocumentFrequencyByRank(), (std::vector<uint32_t>{1, 1, 2}));
}

}  // namespace
}  // namespace dime
