#include "perfbench/src/layers.h"

#include <cstdio>

namespace perfbench {

void EngineTally::AddStats(const dime::DimeResult::Stats& stats, size_t n) {
  ++runs;
  positive_pair_checks += stats.positive_pair_checks;
  negative_pair_checks += stats.negative_pair_checks;
  candidate_pairs += stats.candidate_pairs;
  all_pairs += static_cast<uint64_t>(n) * (n - (n > 0 ? 1 : 0)) / 2;
  partitions_pruned += stats.partitions_pruned_by_filter;
  transitivity_skips += stats.pairs_skipped_by_transitivity;
  kernel_early_exits += stats.kernel_early_exits;
}

void EngineTally::AppendMetrics(unsigned nproc, std::vector<Metric>* out) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  out->push_back({"core.prepare_us_per_entity",
                  ratio(prepare_ns / 1e3, static_cast<double>(entities)), "us"});
  out->push_back({"core.step1_ms", step1_ms.Mean(), "ms"});
  // Derived: the full run minus step 1 (the pivot and the negative phase).
  out->push_back({"core.step3_ms", full_ms.Mean() - step1_ms.Mean(), "ms"});
  out->push_back({"core.positive_pair_checks",
                  static_cast<double>(positive_pair_checks), "count"});
  out->push_back({"core.negative_pair_checks",
                  static_cast<double>(negative_pair_checks), "count"});
  out->push_back({"index.candidate_pairs", static_cast<double>(candidate_pairs),
                  "count"});
  out->push_back({"index.filter_ratio",
                  ratio(static_cast<double>(candidate_pairs),
                        static_cast<double>(all_pairs)),
                  "ratio"});
  out->push_back({"index.transitivity_skip_ratio",
                  ratio(static_cast<double>(transitivity_skips),
                        static_cast<double>(candidate_pairs)),
                  "ratio"});
  out->push_back({"index.partitions_pruned",
                  static_cast<double>(partitions_pruned), "count"});
  out->push_back({"sim.kernel_early_exits",
                  static_cast<double>(kernel_early_exits), "count"});
  out->push_back({"sim.early_exit_ratio",
                  ratio(static_cast<double>(kernel_early_exits),
                        static_cast<double>(positive_pair_checks +
                                            negative_pair_checks)),
                  "ratio"});
  double sharded_s = sharded_ms.Mean() / 1e3;
  double sharded_1t_s = sharded_1t_ms.Mean() / 1e3;
  out->push_back({"exec.sharded_s", sharded_s, "s"});
  out->push_back({"exec.sharded_1t_s", sharded_1t_s, "s"});
  out->push_back({"exec.parallel_efficiency",
                  ratio(sharded_1t_s, nproc * sharded_s), "ratio"});
}

void AppendLayerShares(const std::string& workload,
                       const std::map<std::string, int64_t>& self_ns,
                       std::vector<Metric>* report,
                       std::vector<std::string>* notes) {
  double total = 0;
  for (const char* layer : kLayers) {
    auto it = self_ns.find(layer);
    if (it != self_ns.end()) total += static_cast<double>(it->second);
  }
  char line[160];
  notes->push_back("layer-share table (self time of the spans charged to "
                   "each layer), workload " + workload + ":");
  std::snprintf(line, sizeof(line), "  %-8s %12s %8s", "layer", "self_ms",
                "share");
  notes->push_back(line);
  for (const char* layer : kLayers) {
    auto it = self_ns.find(layer);
    double ns = it == self_ns.end() ? 0.0 : static_cast<double>(it->second);
    double share = total > 0 ? ns / total : 0.0;
    std::snprintf(line, sizeof(line), "  %-8s %12.3f %7.1f%%", layer, ns / 1e6,
                  100.0 * share);
    notes->push_back(line);
    report->push_back({std::string("share.") + layer, share, "ratio"});
  }
}

}  // namespace perfbench
