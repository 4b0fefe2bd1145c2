#ifndef DIME_EXEC_SHARDED_DIME_H_
#define DIME_EXEC_SHARDED_DIME_H_

#include "src/core/dime.h"
#include "src/exec/pool.h"

/// \file sharded_dime.h
/// The sharded streaming execution engine (DESIGN.md §7.9): DIME+
/// (Algorithm 2) decomposed into chunky tasks on a WorkStealingPool,
/// with the positive-phase merges going through a striped concurrent
/// union-find. Decisions (partitions, pivot, flags) are bit-identical to
/// serial RunDimePlus, and so to the RunDime oracle, for any thread
/// count — the partitions are the transitive closure of the verified
/// positive edges, which no schedule can change, and the negative phase
/// is per-partition deterministic. Step-1 effort stats (pair checks /
/// transitivity skips) are schedule-dependent; their sum equals the
/// deterministic candidate volume.
///
/// Failure contract:
///  * a task that throws → a WARNING and the serial RunDimePlus run of
///    the same group under the same control (bit-identical decisions);
///  * deadline/cancellation during step 1 → no partitions, empty
///    scrollbar, explaining status;
///  * during step 3 → partitions kept, the flags computed so far kept
///    (a subset of the full run's; monotone), explaining status.

namespace dime {
namespace exec {

struct ShardedOptions {
  /// Total executors when `pool` is null (0 = ResolveThreadCount). With
  /// a borrowed pool the pool's size wins.
  unsigned num_threads = 0;
  /// Borrowed scheduler; null = build a pool for this call. DimeService
  /// shares one pool across its serving workers through this.
  WorkStealingPool* pool = nullptr;
};

/// Sharded counterpart of RunDimePlus: parallel signature generation,
/// postings grouped by signature on the pool (the inverted lists, see
/// exec/group_by_signature.h), volume-balanced candidate
/// verification into the striped union-find, then the extracted
/// negative-phase scan (core/dime_plus_internal.h) one partition per
/// task against prebuilt per-rule contexts. This is the path for large
/// groups; perfbench's batch-scale workload times it on dbgen-100k, the
/// largest group measured.
DimeResult RunDimePlusSharded(const PreparedGroup& pg,
                              const std::vector<PositiveRule>& positive,
                              const std::vector<NegativeRule>& negative,
                              const ShardedOptions& options,
                              const RunControl& control);

DimeResult RunDimePlusSharded(const PreparedGroup& pg,
                              const std::vector<PositiveRule>& positive,
                              const std::vector<NegativeRule>& negative,
                              const ShardedOptions& options = {});

}  // namespace exec
}  // namespace dime

#endif  // DIME_EXEC_SHARDED_DIME_H_
