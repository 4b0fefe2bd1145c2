#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file bench.h
/// The workloads and what a run of one of them reports. See README.md in
/// this directory for what each workload and metric means.

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string server_binary;  ///< dime_server built from this checkout
  std::string work_dir;       ///< scratch space, removed by the caller
  std::string trace_path;     ///< where the traced run writes its spans
  unsigned nproc = 1;         ///< threads and connections never exceed it
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  /// Checks that failed, were shed, timed out or did not match the oracle.
  uint64_t failed = 0;
  /// The subset of `failed` whose answer disagreed with the oracle.
  uint64_t mismatched = 0;
  /// Non-empty: the run is invalid (for example the generator fell behind
  /// its schedule) and reports nothing.
  std::string invalid;
  /// The metrics of the result line: every end-to-end metric untraced,
  /// every per-layer metric traced.
  std::vector<Metric> result;
  /// Everything else printed by name before the result line.
  std::vector<Metric> report;
  /// Free-form lines printed before the result line (tables, notes).
  std::vector<std::string> notes;
};

Outcome RunServingWorkload(const Options& options);  // hot-read, cold-check, live-churn
Outcome RunBatchScale(const Options& options);

bool IsServingWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
