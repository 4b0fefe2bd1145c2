#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/util.h"
#include "src/core/dime.h"

/// \file layers.h
/// Per-layer metrics shared by every traced run: the engine tally behind
/// the core, index, sim and exec metrics, and the layer-share table.

namespace perfbench {

/// What the benchmark measured by calling PrepareGroup, RunDimePlus and
/// the sharded engine on the groups a workload checked.
struct EngineTally {
  size_t runs = 0;
  size_t entities = 0;
  int64_t prepare_ns = 0;
  // Per engine run, in ms; the metrics report their means.
  Samples step1_ms;    ///< RunDimePlus with the negative rules removed
  Samples full_ms;     ///< RunDimePlus, all rules (serial engine)
  Samples sharded_ms;  ///< sharded DIME+ at nproc threads
  Samples sharded_1t_ms;  ///< sharded DIME+ inline, one thread
  uint64_t positive_pair_checks = 0;
  uint64_t negative_pair_checks = 0;
  uint64_t candidate_pairs = 0;
  uint64_t all_pairs = 0;
  uint64_t partitions_pruned = 0;
  uint64_t transitivity_skips = 0;
  uint64_t kernel_early_exits = 0;

  /// Folds in the serial engine's counters for one group of `n` entities.
  void AddStats(const dime::DimeResult::Stats& stats, size_t n);
  /// core.*, index.*, sim.* and exec.* metrics.
  void AppendMetrics(unsigned nproc, std::vector<Metric>* out);
};

/// The layers of the share table, in print order.
inline const char* const kLayers[] = {"server", "store", "core", "exec"};

/// Appends share.<layer> metrics (self time over all layers' self time)
/// to `report` and the printed table to `notes`.
void AppendLayerShares(const std::string& workload,
                       const std::map<std::string, int64_t>& self_ns,
                       std::vector<Metric>* report,
                       std::vector<std::string>* notes);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
