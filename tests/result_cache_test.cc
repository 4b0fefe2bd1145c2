#include "src/server/result_cache.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace dime {
namespace {

/// A distinguishable result: `tag` rides in the pivot index so tests can
/// tell which insert a hit came from.
std::shared_ptr<const DimeResult> MakeResult(int tag) {
  auto result = std::make_shared<DimeResult>();
  result->pivot = tag;
  return result;
}

TEST(FingerprintTest, DeterministicAndContentSensitive) {
  Fingerprint a1 = FingerprintBytes("plus\x1frules\x1fgroup-content");
  Fingerprint a2 = FingerprintBytes("plus\x1frules\x1fgroup-content");
  EXPECT_EQ(a1, a2);

  // One changed byte flips the fingerprint.
  Fingerprint b = FingerprintBytes("plus\x1frules\x1fgroup-contenT");
  EXPECT_NE(a1, b);

  // Empty input still yields the (non-colliding) offset bases.
  Fingerprint empty = FingerprintBytes("");
  EXPECT_NE(empty, a1);
  EXPECT_NE(empty.lo, empty.hi);
}

TEST(FingerprintTest, HalvesAreIndependentStreams) {
  // The two 64-bit halves come from different offset bases, so they never
  // agree — a collision would have to defeat both streams at once.
  for (const char* s : {"", "a", "abc", "group\tcontent\n", "xyzzy"}) {
    Fingerprint fp = FingerprintBytes(s);
    EXPECT_NE(fp.lo, fp.hi) << "input: " << s;
  }
}

TEST(FingerprintTest, FieldsAreLengthPrefixed) {
  // Field boundaries are part of the input: moving bytes between fields,
  // or zero bytes at a word's padded tail, changes the fingerprint.
  auto fields = [](std::initializer_list<std::string_view> parts) {
    ContentHasher h;
    for (std::string_view part : parts) h.Field(part);
    return h.Finish();
  };
  EXPECT_NE(fields({"ab", "c"}), fields({"a", "bc"}));
  EXPECT_NE(fields({"abc"}), fields({"ab", "c"}));
  EXPECT_NE(fields({"", "x"}), fields({"x", ""}));
  EXPECT_NE(fields({std::string_view("a\0", 2)}), fields({"a"}));
  EXPECT_NE(fields({"12345678"}), fields({"1234567", "8"}));
  EXPECT_EQ(fields({"ab", "c"}), fields({"ab", "c"}));
  EXPECT_EQ(fields({"plus"}), FingerprintBytes("plus"));
}

TEST(ResultCacheTest, MissThenHit) {
  ResultCache cache(4);
  Fingerprint key = FingerprintBytes("k1");
  EXPECT_EQ(cache.Lookup(key), nullptr);
  cache.Insert(key, MakeResult(10));
  auto hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->pivot, 10);

  ResultCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.insertions, 1u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.size, 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  Fingerprint k1 = FingerprintBytes("k1");
  Fingerprint k2 = FingerprintBytes("k2");
  Fingerprint k3 = FingerprintBytes("k3");
  cache.Insert(k1, MakeResult(1));
  cache.Insert(k2, MakeResult(2));
  // Touch k1 so k2 becomes the LRU entry.
  ASSERT_NE(cache.Lookup(k1), nullptr);
  cache.Insert(k3, MakeResult(3));  // evicts k2

  EXPECT_EQ(cache.Lookup(k2), nullptr);
  ASSERT_NE(cache.Lookup(k1), nullptr);
  ASSERT_NE(cache.Lookup(k3), nullptr);

  ResultCache::Counters c = cache.counters();
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.size, 2u);
}

TEST(ResultCacheTest, DuplicateInsertRefreshesNotGrows) {
  ResultCache cache(2);
  Fingerprint k1 = FingerprintBytes("k1");
  Fingerprint k2 = FingerprintBytes("k2");
  cache.Insert(k1, MakeResult(1));
  cache.Insert(k2, MakeResult(2));
  // Re-inserting k1 refreshes its value and LRU slot; nothing is evicted.
  cache.Insert(k1, MakeResult(100));
  ResultCache::Counters c = cache.counters();
  EXPECT_EQ(c.size, 2u);
  EXPECT_EQ(c.evictions, 0u);
  auto hit = cache.Lookup(k1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->pivot, 100);
  // k1 was refreshed most recently, so a third key evicts k2.
  cache.Insert(FingerprintBytes("k3"), MakeResult(3));
  EXPECT_EQ(cache.Lookup(k2), nullptr);
  EXPECT_NE(cache.Lookup(k1), nullptr);
}

TEST(ResultCacheTest, ZeroCapacityDisablesButStillCounts) {
  ResultCache cache(0);
  Fingerprint key = FingerprintBytes("k");
  cache.Insert(key, MakeResult(1));  // no-op
  EXPECT_EQ(cache.Lookup(key), nullptr);
  ResultCache::Counters c = cache.counters();
  EXPECT_EQ(c.size, 0u);
  EXPECT_EQ(c.insertions, 0u);
  // The miss is still recorded so /stats reflects traffic.
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 0u);
}

TEST(ResultCacheTest, HitValueSurvivesEviction) {
  // shared_ptr semantics: a caller holding a hit keeps the result alive
  // even after the cache evicts the entry.
  ResultCache cache(1);
  Fingerprint k1 = FingerprintBytes("k1");
  cache.Insert(k1, MakeResult(42));
  std::shared_ptr<const DimeResult> held = cache.Lookup(k1);
  ASSERT_NE(held, nullptr);
  cache.Insert(FingerprintBytes("k2"), MakeResult(2));  // evicts k1
  EXPECT_EQ(cache.Lookup(k1), nullptr);
  EXPECT_EQ(held->pivot, 42);
}

TEST(ResultCacheTest, ConcurrentLookupsAndInserts) {
  ResultCache cache(8);
  constexpr int kThreads = 4;
  constexpr int kOps = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        Fingerprint key = FingerprintBytes("key-" + std::to_string(i % 16));
        if ((i + t) % 3 == 0) {
          cache.Insert(key, MakeResult(i));
        } else {
          auto hit = cache.Lookup(key);
          if (hit != nullptr) {
            // Touch the value; TSan would flag unsynchronized access.
            volatile int x = hit->pivot;
            (void)x;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ResultCache::Counters c = cache.counters();
  EXPECT_LE(c.size, 8u);
  // Each thread performs exactly 200 lookups ((i + t) % 3 != 0 for 200 of
  // the 300 iterations), every one counted as a hit or a miss.
  EXPECT_EQ(c.hits + c.misses, 800u);
  EXPECT_GT(c.insertions, 0u);
}

}  // namespace
}  // namespace dime
