#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

/// \file util.h
/// Small helpers shared by the benchmark's workloads: a monotonic clock,
/// exact percentiles over kept samples, a seeded Zipf sampler and a
/// reader for the flat JSON objects the server answers with.

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Every sample is kept, so percentiles are exact (nearest rank).
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank percentile, `p` in (0, 1]. 0 for an empty sample.
  double Percentile(double p) {
    if (values_.empty()) return 0.0;
    Sort();
    size_t rank = static_cast<size_t>(std::ceil(p * values_.size()));
    rank = std::clamp<size_t>(rank, 1, values_.size());
    return values_[rank - 1];
  }
  /// The highest percentile (capped at `cap`) that leaves at least
  /// `beyond` samples above it; sets `*used` to that percentile.
  double TailPercentile(double cap, size_t beyond, double* used) {
    double p = cap;
    if (values_.size() > beyond) {
      p = std::min(cap, 1.0 - static_cast<double>(beyond) /
                                  static_cast<double>(values_.size()));
    } else {
      p = 1.0;
    }
    if (used != nullptr) *used = p;
    return Percentile(p);
  }
  double Median() { return Percentile(0.5); }
  double Max() { return Percentile(1.0); }
  double Sum() const {
    double s = 0;
    for (double v : values_) s += v;
    return s;
  }
  double Mean() const { return values_.empty() ? 0.0 : Sum() / values_.size(); }

 private:
  void Sort() {
    if (!sorted_) std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  std::vector<double> values_;
  bool sorted_ = true;
};

/// Zipf(s) over [0, n) by inverse CDF on a precomputed table.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t operator()(std::mt19937_64& rng) const {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// FNV-1a, used to fold a reply's decision fields into one comparable word.
inline uint64_t Fnv1a(std::string_view bytes, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The fields of one server reply the benchmark checks. Parsed by the
/// benchmark's own reader, independent of the server's wire code.
struct ReplyFields {
  std::string status;
  uint64_t epoch = 0;
  bool cached = false;
  uint64_t partitions = 0;
  uint64_t pivot_size = 0;
  std::vector<uint64_t> flagged_per_prefix;
  std::vector<std::string> flagged;
  uint64_t delta_records = 0;
  uint64_t cache_hits = 0, cache_misses = 0, accepted = 0, rejected = 0;
  uint64_t epochs_installed = 0, epochs_retired = 0;
};

/// Cumulative CPU time of the whole machine (all CPUs, in clock ticks):
/// total and stolen by the hypervisor, from /proc/stat.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Peak resident memory (VmHWM) of process `pid` ("self" for this one),
/// in MB; 0 if unreadable.
double PeakRssMb(const std::string& pid);
/// Resets the peak of process `pid` to its current resident size. False
/// if the kernel refuses.
bool ResetPeakRss(const std::string& pid);

/// Share of CPU time the hypervisor took between two readings.
inline double StealShare(const CpuTicks& a, const CpuTicks& b) {
  return b.total > a.total
             ? static_cast<double>(b.steal - a.steal) / (b.total - a.total)
             : 0.0;
}

/// Parses one flat JSON object (arrays of numbers or strings allowed as
/// values). Unknown keys are skipped. False on malformed input.
bool ParseReply(std::string_view text, ReplyFields* out);

/// The canonical digest of a check decision: partition count, pivot size,
/// per-prefix flagged counts and the flagged ids in order.
uint64_t DecisionDigest(uint64_t partitions, uint64_t pivot_size,
                        const std::vector<uint64_t>& flagged_per_prefix,
                        const std::vector<std::string>& flagged);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
