#ifndef DIME_SERVER_LATENCY_HISTOGRAM_H_
#define DIME_SERVER_LATENCY_HISTOGRAM_H_

#include <bit>
#include <cstdint>

/// \file latency_histogram.h
/// Log-linear latency histogram behind the service's p50/p99 stats.
/// Values (nanoseconds) below 8 get a bucket each; above that, every
/// octave [2^e, 2^(e+1)) splits into 8 equal sub-buckets, so a bucket is
/// at most 1/8 of its lower bound wide. A percentile reports the midpoint
/// of the bucket it falls in, which is within 6.25% of every value in
/// that bucket. 496 buckets cover the whole uint64 range. Not
/// thread-safe: the owner guards it.

namespace dime {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 3;  // 8 sub-buckets per octave
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = kSub + (64 - kSubBits) * kSub;

  void Record(uint64_t value) { ++counts_[BucketOf(value)]; }

  /// The `q` quantile (0 < q <= 1) of the recorded values, or 0 when
  /// nothing was recorded.
  double Percentile(double q) const {
    uint64_t total = 0;
    for (uint64_t c : counts_) total += c;
    if (total == 0) return 0.0;
    // Rank of the quantile among the sorted values, 1-based.
    double wanted = q * static_cast<double>(total);
    uint64_t rank = static_cast<uint64_t>(wanted);
    if (static_cast<double>(rank) < wanted || rank == 0) ++rank;
    uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= rank) return Midpoint(b);
    }
    return Midpoint(kBuckets - 1);
  }

  static int BucketOf(uint64_t value) {
    if (value < kSub) return static_cast<int>(value);
    int shift = std::bit_width(value) - 1 - kSubBits;
    return kSub + shift * kSub + static_cast<int>((value >> shift) - kSub);
  }

  /// Middle of bucket `b`'s value range.
  static double Midpoint(int b) {
    if (b < kSub) return static_cast<double>(b);
    int shift = b / kSub - 1;
    double low = static_cast<double>(static_cast<uint64_t>(kSub + b % kSub)
                                     << shift);
    double width = static_cast<double>(uint64_t{1} << shift);
    return low + (width - 1) / 2;
  }

 private:
  uint64_t counts_[kBuckets] = {};
};

}  // namespace dime

#endif  // DIME_SERVER_LATENCY_HISTOGRAM_H_
