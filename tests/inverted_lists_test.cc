#include "src/exec/inverted_lists.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/index/verification.h"

namespace dime {
namespace exec {
namespace {

using Posting = std::pair<uint64_t, int>;

/// Postings of entities added one after another, as step 1a emits them.
class Postings {
 public:
  void Add(int entity, const std::vector<uint64_t>& sigs) {
    for (uint64_t s : sigs) postings_.emplace_back(s, entity);
    num_entities_ = std::max(num_entities_, static_cast<size_t>(entity) + 1);
  }
  const std::vector<Posting>& all() const { return postings_; }
  size_t num_entities() const { return num_entities_; }

 private:
  std::vector<Posting> postings_;
  size_t num_entities_ = 0;
};

/// The visiting-order lists BuildInvertedLists gives on a pool of
/// `threads`, copied, with the postings cut into three uneven parts.
std::vector<std::vector<int>> ListsOnPool(const Postings& postings,
                                          unsigned threads) {
  const std::vector<Posting>& all = postings.all();
  const size_t n = all.size();
  const size_t bounds[] = {0, n / 5, n / 5 + n / 2, n};
  std::vector<std::vector<Posting>> parts;
  for (size_t p = 0; p + 1 < std::size(bounds); ++p) {
    parts.emplace_back(all.begin() + bounds[p], all.begin() + bounds[p + 1]);
  }
  WorkStealingPool pool(PoolOptions{threads});
  InvertedLists lists =
      BuildInvertedLists(&pool, postings.num_entities(), &parts);
  for (const std::vector<Posting>& part : parts) {
    EXPECT_EQ(part.capacity(), 0u) << "a part was not freed";
  }
  EXPECT_EQ(lists.entities.size(), n);
  std::vector<std::vector<int>> out;
  for (const ListRun& l : lists.order) {
    out.emplace_back(lists.entities.begin() + l.begin,
                     lists.entities.begin() + l.begin + l.len);
  }
  return out;
}

/// Checks the lists at 1, 2 and 4 threads.
void ExpectLists(const Postings& postings,
                 const std::vector<std::vector<int>>& expected) {
  for (unsigned threads : {1u, 2u, 4u}) {
    EXPECT_EQ(ListsOnPool(postings, threads), expected)
        << "threads=" << threads;
  }
}

TEST(InvertedListsTest, CandidatesFromSharedSignatures) {
  Postings postings;
  postings.Add(0, {10, 20, 30});
  postings.Add(1, {20, 30, 40});
  postings.Add(2, {99});
  // Signatures 20 and 30 each carry the pair (0, 1); singleton lists
  // (10, 40, 99) hold no pair and are not visited.
  ExpectLists(postings, {{0, 1}, {0, 1}});
}

TEST(InvertedListsTest, NoSharedSignaturesNoCandidates) {
  Postings postings;
  postings.Add(0, {1});
  postings.Add(1, {2});
  ExpectLists(postings, {});
  ExpectLists(Postings(), {});
}

TEST(InvertedListsTest, CandidatesAreDeterministicallyOrdered) {
  // A list keeps its entities in input order.
  Postings postings;
  postings.Add(3, {5});
  postings.Add(1, {5});
  postings.Add(2, {5});
  ExpectLists(postings, {{3, 1, 2}});
}

TEST(InvertedListsTest, ShortListsFirstOrdersByLengthThenFirstEntity) {
  Postings postings;
  // sig 1 -> {0,1,2,3}, sig 2 -> {1,4}, sig 3 -> {0,5}, sig 4 -> {2,3,4}.
  postings.Add(0, {1, 3});
  postings.Add(1, {1, 2});
  postings.Add(2, {1, 4});
  postings.Add(3, {1, 4});
  postings.Add(4, {2, 4});
  postings.Add(5, {3});
  // Equal lengths tie-break on the first entity: {0,5} before {1,4},
  // although signature order puts sig 2 before sig 3.
  ExpectLists(postings, {{0, 5}, {1, 4}, {2, 3, 4}, {0, 1, 2, 3}});
}

TEST(InvertedListsTest, ListsMatchAStableSortReference) {
  // Entities added in shuffled order, sharing signatures drawn from a
  // pool (uniform hashes, low keys that share their top bits, and one
  // signature on every entity): each list must hold its entities in
  // input order, as a stable sort of the postings by signature gives,
  // and the lists must come by (length, first entity, signature). The
  // large case has enough postings and lists to group and order them in
  // pooled tasks.
  for (const auto& [entities, pool_size] :
       {std::pair<int, int>{3000, 400}, std::pair<int, int>{40000, 60000}}) {
    Random rng(5 + entities);
    std::vector<uint64_t> pool = {0xfeedfacecafebeefULL};  // on every entity
    for (int k = 0; k < pool_size; ++k) pool.push_back(rng.NextUint64());
    for (uint64_t k = 1; k <= 40; ++k) pool.push_back(k);
    std::vector<int> order;
    for (int e = 0; e < entities; ++e) order.push_back(e);
    rng.Shuffle(&order);

    Postings postings;
    for (int e : order) {
      std::vector<uint64_t> sigs = {pool[0]};
      for (int k = 0; k < 4; ++k) {
        sigs.push_back(pool[rng.Uniform(pool.size())]);
      }
      postings.Add(e, sigs);
    }
    std::vector<Posting> sorted = postings.all();
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Posting& a, const Posting& b) {
                       return a.first < b.first;
                     });
    std::vector<std::vector<int>> by_signature;
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (i == 0 || sorted[i].first != sorted[i - 1].first) {
        by_signature.emplace_back();
      }
      by_signature.back().push_back(sorted[i].second);
    }
    std::vector<size_t> visited;
    for (size_t l = 0; l < by_signature.size(); ++l) {
      if (by_signature[l].size() > 1) visited.push_back(l);
    }
    std::sort(visited.begin(), visited.end(), [&](size_t a, size_t b) {
      return std::make_tuple(by_signature[a].size(), by_signature[a][0], a) <
             std::make_tuple(by_signature[b].size(), by_signature[b][0], b);
    });
    std::vector<std::vector<int>> expected;
    for (size_t l : visited) expected.push_back(by_signature[l]);
    SCOPED_TRACE("entities=" + std::to_string(entities));
    ExpectLists(postings, expected);
  }
}

TEST(VerificationTest, SimilarProbability) {
  EXPECT_DOUBLE_EQ(SimilarProbability(2, 4, 4), 0.5);
  EXPECT_DOUBLE_EQ(SimilarProbability(0, 4, 4), 0.0);
  EXPECT_DOUBLE_EQ(SimilarProbability(10, 4, 4), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(SimilarProbability(1, 0, 0), 0.0);   // no signatures
}

TEST(VerificationTest, BenefitOrdering) {
  // Higher probability or lower cost -> larger benefit.
  EXPECT_GT(PositiveBenefit(0.9, 10.0), PositiveBenefit(0.1, 10.0));
  EXPECT_GT(PositiveBenefit(0.5, 5.0), PositiveBenefit(0.5, 50.0));
}

}  // namespace
}  // namespace exec
}  // namespace dime
