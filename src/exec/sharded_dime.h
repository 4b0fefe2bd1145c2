#ifndef DIME_EXEC_SHARDED_DIME_H_
#define DIME_EXEC_SHARDED_DIME_H_

#include "src/core/dime.h"
#include "src/exec/pool.h"

/// \file sharded_dime.h
/// DIME+ (Algorithm 2) as chunky tasks on a WorkStealingPool (DESIGN.md
/// §7.9), the one body behind RunDimePlus (core/dime_plus.h, one
/// executor) and RunDimePlusSharded (any pool). Positive-phase merges go
/// through a striped concurrent union-find. Decisions (partitions, pivot,
/// flags) are bit-identical to the RunDime oracle for any thread count:
/// the partitions are the transitive closure of the verified positive
/// edges, which no schedule can change, and the negative phase is
/// per-partition deterministic. With one executor the tasks run in spawn
/// order, so every effort stat is deterministic too; with more, step 1's
/// split between pair checks and transitivity skips depends on the
/// schedule, and their sum is always the candidate volume.
///
/// Failure contract:
///  * a task that throws → a WARNING, then the group reruns once on a
///    private one-executor pool (inline on the caller); a fault in that
///    rerun → no partitions, empty scrollbar, INTERNAL status;
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

/// Runs Algorithm 2 on the pool of `options`: parallel signature
/// generation, the inverted lists grouped and ordered on the pool
/// (exec/inverted_lists.h), volume-balanced candidate verification in
/// list order into the striped union-find, then the negative-phase scan
/// (core/dime_plus_internal.h) one partition per task against prebuilt
/// per-rule contexts. exec::RunEngine takes this path for groups of
/// kPrepareChunkEntities entities or more; perfbench's batch-scale
/// workload times it on dbgen-100k, the largest group measured.
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
