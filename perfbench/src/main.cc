// perfbench: the repository's benchmark. Runs one workload for a fixed
// time from a seed, checks every answer against the oracle, and prints
// every metric by name with its unit; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload hot-read|cold-check|live-churn|batch-scale
//             --seed N --seconds S --trace 0|1
//             --server-binary PATH --work-dir DIR [--trace-path FILE]
//             [--git-sha SHA] [--source-digest HEX]
//
// Normally started through run.py, which builds it first. Exit codes:
// 0 done, 1 an answer disagreed with the oracle, 2 bad arguments or a
// non-Release build, 3 the run was invalid (nothing reported).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/src/bench.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int Usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  return 2;
}

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  // A timing from a build with assertions compiled in is not comparable
  // with Release numbers; refuse rather than report it.
  std::fprintf(stderr,
               "perfbench: refusing to run a non-Release build (NDEBUG is not "
               "defined); configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  Options options;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value after " + arg).c_str());
    std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--server-binary") {
      options.server_binary = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--trace-path") {
      options.trace_path = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (options.seconds < 1) return Usage("--seconds must be at least 1");
  if (options.work_dir.empty()) return Usage("--work-dir is required");
  const bool serving = perfbench::IsServingWorkload(options.workload);
  if (!serving && options.workload != "batch-scale") {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (serving && access(options.server_binary.c_str(), X_OK) != 0) {
    return Usage("--server-binary does not name an executable");
  }
  options.nproc = std::max(1u, std::thread::hardware_concurrency());

  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"traced\": %s, \"nproc\": %u, \"build_type\": \"%s\", \"git_sha\": "
      "\"%s\", \"source_digest\": \"%s\"}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? "true" : "false", options.nproc,
      PERFBENCH_BUILD_TYPE, git_sha.c_str(), source_digest.c_str());
  std::fflush(stdout);

  Outcome outcome = serving ? perfbench::RunServingWorkload(options)
                            : perfbench::RunBatchScale(options);
  for (const std::string& note : outcome.notes) std::printf("%s\n", note.c_str());
  if (!outcome.invalid.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: run invalid: %s\n", outcome.invalid.c_str());
    return 3;
  }
  double failed_share =
      outcome.attempted > 0
          ? static_cast<double>(outcome.failed) / outcome.attempted
          : 0.0;
  outcome.report.push_back({"failed_share", failed_share, "ratio"});
  outcome.report.push_back(
      {"oracle_mismatches", static_cast<double>(outcome.mismatched), "count"});
  for (const Metric& m : outcome.result) {
    std::printf("metric %-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : outcome.report) {
    std::printf("metric %-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const bool correct = outcome.mismatched == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.result.size(); ++i) {
    const Metric& m = outcome.result[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + FormatValue(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
