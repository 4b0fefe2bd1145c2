#include "src/index/inverted_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/index/verification.h"

namespace dime {
namespace {

// Every list ForEachList hands out, copied, in visiting order.
std::vector<std::vector<int>> Lists(const InvertedIndex& index) {
  std::vector<std::vector<int>> lists;
  index.ForEachList([&](const int* list, size_t len) {
    lists.emplace_back(list, list + len);
    return true;
  });
  return lists;
}

TEST(InvertedIndexTest, CandidatesFromSharedSignatures) {
  InvertedIndex index;
  index.Add(0, {10, 20, 30});
  index.Add(1, {20, 30, 40});
  index.Add(2, {99});
  // Signatures 20 and 30 each carry the pair (0, 1); singleton lists
  // (10, 40, 99) hold no pair and are not streamed.
  const std::vector<std::vector<int>> expected = {{0, 1}, {0, 1}};
  EXPECT_EQ(Lists(index), expected);
  EXPECT_EQ(index.CandidateVolume(), 2u);
  EXPECT_EQ(index.num_lists(), 5u);
}

TEST(InvertedIndexTest, NoSharedSignaturesNoCandidates) {
  InvertedIndex index;
  index.Add(0, {1});
  index.Add(1, {2});
  EXPECT_TRUE(Lists(index).empty());
  EXPECT_EQ(index.CandidateVolume(), 0u);
}

TEST(InvertedIndexTest, CandidatesAreDeterministicallyOrdered) {
  InvertedIndex index;
  index.Add(3, {5});
  index.Add(1, {5});
  index.Add(2, {5});
  const std::vector<std::vector<int>> expected = {{3, 1, 2}};
  EXPECT_EQ(Lists(index), expected);
  EXPECT_EQ(index.CandidateVolume(), 3u);
}

TEST(InvertedIndexTest, ShortListsFirstOrdersByLengthThenFirstEntity) {
  InvertedIndex index;
  // sig 1 -> {0,1,2,3}, sig 2 -> {1,4}, sig 3 -> {0,5}, sig 4 -> {2,3,4}.
  index.Add(0, {1, 3});
  index.Add(1, {1, 2});
  index.Add(2, {1, 4});
  index.Add(3, {1, 4});
  index.Add(4, {2, 4});
  index.Add(5, {3});
  // Equal lengths tie-break on the first entity: {0,5} before {1,4},
  // although signature order puts sig 2 before sig 3.
  const std::vector<std::vector<int>> short_first = {
      {0, 5}, {1, 4}, {2, 3, 4}, {0, 1, 2, 3}};
  EXPECT_EQ(Lists(index), short_first);
  EXPECT_EQ(index.CandidateVolume(), 6u + 1u + 1u + 3u);

  // Returning false stops the enumeration after the current list.
  size_t visited = 0;
  index.ForEachList([&](const int*, size_t) { return ++visited < 2; });
  EXPECT_EQ(visited, 2u);
}

TEST(InvertedIndexTest, ListsMatchAStableSortReference) {
  // Entities added in shuffled order, sharing signatures drawn from a
  // small pool (uniform hashes, low keys that share their top bits, and
  // one signature on every entity): each list must hold its entities in
  // insertion order, as a stable sort of the postings by signature gives.
  Random rng(5);
  std::vector<uint64_t> pool = {0xfeedfacecafebeefULL};  // on every entity
  for (int k = 0; k < 400; ++k) pool.push_back(rng.NextUint64());
  for (uint64_t k = 1; k <= 40; ++k) pool.push_back(k);
  std::vector<int> order;
  for (int e = 0; e < 3000; ++e) order.push_back(e);
  rng.Shuffle(&order);

  InvertedIndex index;
  std::vector<std::pair<uint64_t, int>> postings;
  for (int e : order) {
    std::vector<uint64_t> sigs = {pool[0]};
    for (int k = 0; k < 4; ++k) sigs.push_back(pool[rng.Uniform(pool.size())]);
    index.Add(e, sigs);
    for (uint64_t s : sigs) postings.emplace_back(s, e);
  }
  std::stable_sort(postings.begin(), postings.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  // Reference lists in signature order, then the streaming order
  // ForEachList documents: length, first entity, signature position.
  std::vector<std::vector<int>> by_signature;
  for (size_t i = 0; i < postings.size(); ++i) {
    if (i == 0 || postings[i].first != postings[i - 1].first) {
      by_signature.emplace_back();
    }
    by_signature.back().push_back(postings[i].second);
  }
  std::vector<size_t> streamed;
  for (size_t l = 0; l < by_signature.size(); ++l) {
    if (by_signature[l].size() > 1) streamed.push_back(l);
  }
  std::sort(streamed.begin(), streamed.end(), [&](size_t a, size_t b) {
    return std::make_tuple(by_signature[a].size(), by_signature[a][0], a) <
           std::make_tuple(by_signature[b].size(), by_signature[b][0], b);
  });
  std::vector<std::vector<int>> expected;
  size_t volume = 0;
  for (size_t l : streamed) {
    expected.push_back(by_signature[l]);
    volume += by_signature[l].size() * (by_signature[l].size() - 1) / 2;
  }
  EXPECT_EQ(Lists(index), expected);
  EXPECT_EQ(index.num_lists(), by_signature.size());
  EXPECT_EQ(index.CandidateVolume(), volume);
}

TEST(VerificationTest, SimilarProbability) {
  EXPECT_DOUBLE_EQ(SimilarProbability(2, 4, 4), 0.5);
  EXPECT_DOUBLE_EQ(SimilarProbability(0, 4, 4), 0.0);
  EXPECT_DOUBLE_EQ(SimilarProbability(10, 4, 4), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(SimilarProbability(1, 0, 0), 0.0);   // no signatures
}

TEST(VerificationTest, BenefitOrdering) {
  // Positive: higher probability or lower cost -> larger benefit.
  EXPECT_GT(PositiveBenefit(0.9, 10.0), PositiveBenefit(0.1, 10.0));
  EXPECT_GT(PositiveBenefit(0.5, 5.0), PositiveBenefit(0.5, 50.0));
  // Negative: lower probability -> larger benefit.
  EXPECT_GT(NegativeBenefit(0.1, 10.0), NegativeBenefit(0.9, 10.0));
  EXPECT_GT(NegativeBenefit(0.5, 5.0), NegativeBenefit(0.5, 50.0));
}

}  // namespace
}  // namespace dime
