#include "src/server/latency_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/random.h"

namespace dime {
namespace {

/// The exact `q` quantile: the ceil(q * n)-th smallest value.
double ExactPercentile(std::vector<uint64_t> values, double q) {
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return static_cast<double>(values[std::max<size_t>(rank, 1) - 1]);
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketOf(v), static_cast<int>(v));
    EXPECT_EQ(LatencyHistogram::Midpoint(static_cast<int>(v)),
              static_cast<double>(v));
  }
  EXPECT_EQ(h.Percentile(0.5), 0.0);  // empty
  h.Record(5);
  EXPECT_EQ(h.Percentile(0.5), 5.0);
  EXPECT_EQ(h.Percentile(0.99), 5.0);
}

TEST(LatencyHistogramTest, BucketsTileTheRangeWithinOneEighth) {
  // Every bucket's midpoint lands back in that bucket, consecutive
  // buckets are contiguous, and each is at most 1/8 of its value wide.
  for (uint64_t v : {8ull, 15ull, 16ull, 17ull, 1000ull, 123456789ull,
                     (1ull << 40) + 12345, ~0ull}) {
    int b = LatencyHistogram::BucketOf(v);
    ASSERT_LT(b, LatencyHistogram::kBuckets);
    double mid = LatencyHistogram::Midpoint(b);
    EXPECT_LE(std::fabs(mid - static_cast<double>(v)),
              static_cast<double>(v) / 16 + 1)
        << v;
  }
  EXPECT_EQ(LatencyHistogram::BucketOf(~0ull), LatencyHistogram::kBuckets - 1);
  for (uint64_t v = 1; v < (1u << 20); v = v * 3 / 2 + 1) {
    EXPECT_LE(LatencyHistogram::BucketOf(v), LatencyHistogram::BucketOf(v + 1));
    EXPECT_LE(LatencyHistogram::BucketOf(v + 1) - LatencyHistogram::BucketOf(v), 1);
  }
}

TEST(LatencyHistogramTest, PercentilesWithinTenPercentOfExact) {
  // A known, heavy-tailed distribution: log-uniform latencies from 20 us
  // to 200 ms, plus a 2% tail of slow requests near 1 s, in nanoseconds.
  Random rng(42);
  std::vector<uint64_t> values;
  LatencyHistogram h;
  for (int i = 0; i < 50000; ++i) {
    double log_ns = std::log(20e3) + rng.UniformDouble() * (std::log(200e6) - std::log(20e3));
    if (i % 50 == 0) log_ns = std::log(0.8e9 + rng.UniformDouble() * 0.4e9);
    uint64_t ns = static_cast<uint64_t>(std::exp(log_ns));
    values.push_back(ns);
    h.Record(ns);
  }
  for (double q : {0.50, 0.90, 0.99}) {
    double exact = ExactPercentile(values, q);
    EXPECT_NEAR(h.Percentile(q), exact, 0.10 * exact) << "q=" << q;
  }
}

}  // namespace
}  // namespace dime
