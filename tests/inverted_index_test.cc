#include "src/index/inverted_index.h"

#include <gtest/gtest.h>

#include <vector>

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
