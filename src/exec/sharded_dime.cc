#include "src/exec/sharded_dime.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/logging.h"
#include "src/common/mutex.h"
#include "src/core/dime_plus.h"
#include "src/core/dime_plus_internal.h"
#include "src/core/signature.h"
#include "src/exec/group_by_signature.h"
#include "src/exec/inverted_lists.h"
#include "src/index/striped_union_find.h"
#include "src/sim/set_similarity.h"

namespace dime {
namespace exec {
namespace {

/// Resolves the pool to run on: the borrowed one, or a private pool built
/// for this call and torn down with it.
struct PoolRef {
  WorkStealingPool* pool;
  std::unique_ptr<WorkStealingPool> owned;

  explicit PoolRef(const ShardedOptions& options) {
    if (options.pool != nullptr) {
      pool = options.pool;
    } else {
      owned = std::make_unique<WorkStealingPool>(
          PoolOptions{options.num_threads});
      pool = owned.get();
    }
  }
};

/// Rethrows the group's first task exception, if any. The engine calls
/// this right after Wait(); RunWithRerun catches it.
void RethrowTaskFault(const TaskGroup& group) {
  std::exception_ptr e = group.exception();
  if (e != nullptr) std::rethrow_exception(e);
}

/// Chunky-task sizing: elements per task so every executor gets several
/// tasks (for stealing to balance) without drowning in scheduling noise.
/// One executor has nothing to balance and takes each phase whole.
size_t ChunkSize(size_t total, unsigned threads, size_t floor_size) {
  if (threads == 1) return std::max<size_t>(total, 1);
  const size_t chunks = static_cast<size_t>(threads) * 4;
  return std::max(floor_size, (total + chunks - 1) / chunks);
}

// ---------------------------------------------------------------------------
// Algorithm 2 on a pool: parallel signature postings, pooled inverted
// lists, volume-balanced verification in list order, prebuilt negative
// contexts, one partition scan per task.
// ---------------------------------------------------------------------------

/// Pairs of rows [row_begin, row_end) of a list of `len` entities, each
/// row against every later entity: the sum over rows i of (len - 1 - i).
size_t RowsVolume(size_t len, size_t row_begin, size_t row_end) {
  const size_t rows = row_end - row_begin;
  return rows * ((len - 1 - row_begin) + (len - row_end)) / 2;
}

/// One verification task: lists [first, last) of rule `rule`'s visiting
/// order, rows [row_begin, row_end) of each (clamped to its length).
/// Batches of short lists take every row; a list too long for one task
/// (the stop-word flood) is cut into row slices, one task each, so it
/// cannot serialize the run.
struct VerifyTask {
  size_t rule = 0;
  size_t first = 0;
  size_t last = 0;
  size_t row_begin = 0;
  size_t row_end = SIZE_MAX;
};

/// Per-run freelist of negative-phase scratches. Tasks borrow one for a
/// partition scan and return it; Wait()-helping callers can interleave
/// tasks of unrelated concurrent runs, so scratches are keyed by
/// acquisition, never by worker index.
struct ScratchFreeList {
  Mutex mu;
  std::vector<std::unique_ptr<internal::NegativeScratch>> all
      DIME_GUARDED_BY(mu);
  std::vector<internal::NegativeScratch*> free_list DIME_GUARDED_BY(mu);

  internal::NegativeScratch* Acquire() DIME_EXCLUDES(mu) {
    MutexLock lock(&mu);
    if (!free_list.empty()) {
      internal::NegativeScratch* s = free_list.back();
      free_list.pop_back();
      return s;
    }
    all.push_back(std::make_unique<internal::NegativeScratch>());
    return all.back().get();
  }
  void Release(internal::NegativeScratch* s) DIME_EXCLUDES(mu) {
    MutexLock lock(&mu);
    free_list.push_back(s);
  }
};

DimeResult RunOnPool(const PreparedGroup& pg,
                     const std::vector<PositiveRule>& positive,
                     const std::vector<NegativeRule>& negative,
                     const RunControl& control, WorkStealingPool* pool) {
  DimeResult result;
  const int n = static_cast<int>(pg.size());
  const unsigned threads = pool->thread_count();

  std::atomic<uint64_t> kernel_exits{0};

  // ---- Step 1a: per-rule inverted lists. ---------------------------------
  // One rule at a time, so only one rule's postings are alive: per-chunk
  // tasks generate (sig, entity) postings with private scratches,
  // ascending entities in each chunk; the pool then groups them into
  // lists and orders those (inverted_lists.h).
  std::vector<InvertedLists> lists(positive.size());
  const size_t chunk = ChunkSize(static_cast<size_t>(n), threads, 512);
  const size_t num_chunks = (static_cast<size_t>(n) + chunk - 1) / chunk;
  for (size_t r = 0; r < positive.size(); ++r) {
    const SignatureGenerator gen(pg, positive[r].predicates, Direction::kGe,
                                 /*rule_tag=*/r + 1);
    std::vector<std::vector<std::pair<uint64_t, int>>> chunks(num_chunks);
    TaskGroup gen_group(pool);
    for (size_t c = 0; c < num_chunks; ++c) {
      gen_group.Spawn([&gen, &chunks, &control, &gen_group, chunk, c, n] {
        Status st = internal::CheckRunControl(control, "dime_plus/index-rule");
        if (!st.ok()) {
          gen_group.RecordControl(std::move(st));
          return;
        }
        SignatureScratch scratch;
        std::vector<std::pair<uint64_t, int>>& out = chunks[c];
        const size_t end = std::min(static_cast<size_t>(n), (c + 1) * chunk);
        for (size_t e = c * chunk; e < end; ++e) {
          for (uint64_t s :
               gen.PositiveRuleSignatures(static_cast<int>(e), &scratch)) {
            out.emplace_back(s, static_cast<int>(e));
          }
        }
      });
    }
    gen_group.Wait();
    RethrowTaskFault(gen_group);
    if (!gen_group.control_status().ok()) {
      return internal::NoPartitionsResult(gen_group.control_status(),
                                          negative.size());
    }
    lists[r] = BuildInvertedLists(pool, static_cast<size_t>(n), &chunks);
  }

  // ---- Step 1b: volume-balanced candidate verification. ------------------
  // Rules in turn, each rule's lists in visiting order. With one executor
  // the tasks run in spawn order, so the pairs are verified and skipped
  // in exactly that order. Every task verifies through its rule's plan.
  std::vector<RulePlan> plans;
  plans.reserve(positive.size());
  for (const PositiveRule& rule : positive) {
    plans.push_back(BuildRulePlan(pg, rule.predicates, Direction::kGe));
  }
  StripedUnionFind uf(static_cast<size_t>(n));
  std::atomic<size_t> pos_checks{0};
  std::atomic<size_t> trans_skips{0};
  {
    size_t total_volume = 0;
    for (const InvertedLists& rule_lists : lists) {
      for (const ListRun& l : rule_lists.order) {
        total_volume += RowsVolume(l.len, 0, l.len);
      }
    }
    result.stats.candidate_pairs = total_volume;
    const size_t target_volume =
        std::max<size_t>(1 << 12, ChunkSize(total_volume, threads, 1));

    TaskGroup verify_group(pool);
    auto spawn = [&](const VerifyTask& task) {
      if (task.first == task.last) return;
      verify_group.Spawn([&plans, &lists, &uf, &control,
                          &verify_group, &pos_checks, &trans_skips,
                          &kernel_exits, task] {
        if (DIME_FAULT_POINT(failpoints::kWorkerFault)) {
          throw std::runtime_error("injected worker fault (step 1)");
        }
        const uint64_t exits_before = KernelEarlyExits();
        size_t local_checks = 0, local_skips = 0;
        auto publish = [&] {
          pos_checks.fetch_add(local_checks, std::memory_order_relaxed);
          trans_skips.fetch_add(local_skips, std::memory_order_relaxed);
          kernel_exits.fetch_add(KernelEarlyExits() - exits_before,
                                 std::memory_order_relaxed);
        };
        constexpr size_t kCheckStride = 256;
        size_t until_check = kCheckStride;
        const InvertedLists& rule_lists = lists[task.rule];
        for (size_t k = task.first; k < task.last; ++k) {
          const ListRun run = rule_lists.order[k];
          const int* list = rule_lists.entities.data() + run.begin;
          const size_t len = run.len;
          const size_t row_end = std::min<size_t>(task.row_end, len);
          // Whole-list transitivity skip: once every entity on the list
          // shares one partition, none of its pairs can change the
          // components, so any slice of its rows is decided in O(|l|).
          // Connected() never reports falsely true, so a concurrent merge
          // can only turn a skip into a (redundant but harmless)
          // verification.
          bool all_connected = true;
          for (size_t i = 1; i < len; ++i) {
            if (!uf.Connected(list[0], list[i])) {
              all_connected = false;
              break;
            }
          }
          if (all_connected) {
            local_skips += RowsVolume(len, task.row_begin, row_end);
            continue;
          }
          for (size_t i = task.row_begin; i < row_end; ++i) {
            for (size_t j = i + 1; j < len; ++j) {
              int e1 = list[i], e2 = list[j];
              if (e1 == e2) continue;
              if (e1 > e2) std::swap(e1, e2);
              if (--until_check == 0) {
                until_check = kCheckStride;
                Status st = internal::CheckRunControl(
                    control, "dime_plus/verify-candidates");
                if (!st.ok()) {
                  verify_group.RecordControl(std::move(st));
                  publish();
                  return;
                }
              }
              if (uf.Connected(e1, e2)) {
                ++local_skips;
                continue;
              }
              ++local_checks;
              if (EvalRulePlan(plans[task.rule], e1, e2)) {
                uf.Union(e1, e2);
              }
            }
          }
        }
        publish();
      });
    };
    for (size_t r = 0; r < lists.size(); ++r) {
      const std::vector<ListRun>& order = lists[r].order;
      size_t batch_begin = 0, batch_volume = 0;
      for (size_t k = 0; k < order.size(); ++k) {
        const size_t len = order[k].len;
        const size_t volume = RowsVolume(len, 0, len);
        if (volume <= 2 * target_volume) {
          batch_volume += volume;
          if (batch_volume >= target_volume) {
            spawn(VerifyTask{r, batch_begin, k + 1});
            batch_begin = k + 1;
            batch_volume = 0;
          }
          continue;
        }
        spawn(VerifyTask{r, batch_begin, k});
        size_t row = 0;
        while (row < len) {
          const size_t row_begin = row;
          size_t rows_volume = 0;
          while (row < len && rows_volume < target_volume) {
            rows_volume += len - 1 - row;
            ++row;
          }
          spawn(VerifyTask{r, k, k + 1, row_begin, row});
        }
        batch_begin = k + 1;
        batch_volume = 0;
      }
      spawn(VerifyTask{r, batch_begin, order.size()});
    }
    verify_group.Wait();
    RethrowTaskFault(verify_group);
    if (!verify_group.control_status().ok()) {
      return internal::NoPartitionsResult(verify_group.control_status(),
                                          negative.size());
    }
  }
  std::vector<InvertedLists>().swap(lists);
  result.stats.positive_pair_checks = pos_checks.load();
  result.stats.pairs_skipped_by_transitivity = trans_skips.load();
  result.partitions = uf.Components();

  // ---- Step 2. -----------------------------------------------------------
  result.pivot = internal::PickPivot(result.partitions);

  // ---- Step 3: prebuilt rule contexts, one partition scan per task. ------
  std::vector<int> first_flagging(result.partitions.size(), -1);
  if (result.pivot >= 0 && !negative.empty()) {
    const std::vector<int>& pivot_entities = result.partitions[result.pivot];

    // Build every rule's context up front (pivot signatures in chunk
    // tasks, then the map grouped on the pool straight from those
    // chunks): the partition scans run concurrently and all share the
    // read-only contexts.
    std::vector<internal::NegativeRuleContext> contexts(negative.size());
    bool contexts_ready = true;
    const size_t chunk = ChunkSize(pivot_entities.size(), threads, 256);
    {
      TaskGroup ctx_group(pool);
      for (size_t r = 0; r < negative.size(); ++r) {
        internal::NegativeRuleContext& ctx = contexts[r];
        ctx.plan = BuildRulePlan(pg, negative[r].predicates, Direction::kLe);
        ctx.gen = std::make_unique<SignatureGenerator>(
            pg, negative[r].predicates, Direction::kLe,
            /*rule_tag=*/0x1000 + r);
        ctx.pivot_sigs.resize(pivot_entities.size());
        for (size_t b = 0; b < pivot_entities.size(); b += chunk) {
          const size_t e = std::min(pivot_entities.size(), b + chunk);
          ctx_group.Spawn([&control, &ctx_group, &pivot_entities, &ctx, b,
                           e] {
            Status st = internal::CheckRunControl(
                control, "dime_plus/negative-partition");
            if (!st.ok()) {
              ctx_group.RecordControl(std::move(st));
              return;
            }
            SignatureScratch scratch;
            for (size_t i = b; i < e; ++i) {
              ctx.pivot_sigs[i] =
                  ctx.gen->NegativeRuleSignatures(pivot_entities[i], &scratch);
            }
          });
        }
      }
      ctx_group.Wait();
      RethrowTaskFault(ctx_group);
      if (!ctx_group.control_status().ok()) {
        // Contract of a step-3 truncation: partitions kept, nothing
        // flagged yet, status explains.
        result.status = ctx_group.control_status();
        contexts_ready = false;
      }
    }
    if (contexts_ready) {
      for (size_t r = 0; r < negative.size(); ++r) {
        const std::vector<std::vector<uint64_t>>& sigs =
            contexts[r].pivot_sigs;
        size_t total = 0;
        for (const std::vector<uint64_t>& s : sigs) total += s.size();
        std::vector<internal::PivotSigMap::Entry> entries;
        GroupBySignature<uint32_t>(
            pool, total, (sigs.size() + chunk - 1) / chunk,
            [&sigs, chunk](size_t p, const auto& emit) {
              const size_t end = std::min(sigs.size(), (p + 1) * chunk);
              for (size_t i = p * chunk; i < end; ++i) {
                for (uint64_t s : sigs[i]) {
                  emit(s, static_cast<uint32_t>(i));
                }
              }
            },
            &entries);
        contexts[r].pivot_map.AdoptSorted(std::move(entries));
      }

      std::atomic<size_t> neg_checks{0};
      std::atomic<size_t> pruned{0};
      ScratchFreeList scratches;
      TaskGroup flag_group(pool);
      for (size_t p = 0; p < result.partitions.size(); ++p) {
        if (static_cast<int>(p) == result.pivot) continue;
        flag_group.Spawn([&result, &control, &flag_group, &pivot_entities,
                          &first_flagging, &contexts, &scratches,
                          &neg_checks, &pruned, &kernel_exits, p] {
          if (DIME_FAULT_POINT(failpoints::kWorkerFault)) {
            throw std::runtime_error("injected worker fault (step 3)");
          }
          Status st = internal::CheckRunControl(
              control, "dime_plus/negative-partition");
          if (!st.ok()) {
            flag_group.RecordControl(std::move(st));
            return;
          }
          const uint64_t exits_before = KernelEarlyExits();
          internal::NegativeScratch* scratch = scratches.Acquire();
          internal::NegativePhaseStats local;
          first_flagging[p] = internal::FlagPartitionAgainstPivot(
              pivot_entities, result.partitions[p], contexts, scratch,
              &local);
          scratches.Release(scratch);
          neg_checks.fetch_add(local.negative_pair_checks,
                               std::memory_order_relaxed);
          pruned.fetch_add(local.partitions_pruned_by_filter,
                           std::memory_order_relaxed);
          kernel_exits.fetch_add(KernelEarlyExits() - exits_before,
                                 std::memory_order_relaxed);
        });
      }
      flag_group.Wait();
      RethrowTaskFault(flag_group);
      if (!flag_group.control_status().ok()) {
        result.status = flag_group.control_status();
      }
      result.stats.negative_pair_checks = neg_checks.load();
      result.stats.partitions_pruned_by_filter = pruned.load();
    }
  }
  result.first_flagging_rule = first_flagging;
  result.flagged_by_prefix = internal::BuildScrollbar(
      result.partitions, result.pivot, first_flagging, negative.size());
  result.stats.kernel_early_exits = kernel_exits.load();
  internal::DcheckResultInvariants(result, pg.size(), negative.size());
  return result;
}

/// Runs the body on `pool`; on a task fault, records its text in
/// `*fault` and returns nothing.
std::optional<DimeResult> TryRunOnPool(
    const PreparedGroup& pg, const std::vector<PositiveRule>& positive,
    const std::vector<NegativeRule>& negative, const RunControl& control,
    WorkStealingPool* pool, std::string* fault) {
  try {
    return RunOnPool(pg, positive, negative, control, pool);
  } catch (const std::exception& e) {
    *fault = e.what();
  } catch (...) {
    *fault = "unknown exception";
  }
  return std::nullopt;
}

/// The failure contract of sharded_dime.h: a task fault reruns the group
/// once, inline on the caller, and a fault in that rerun is INTERNAL.
DimeResult RunWithRerun(const PreparedGroup& pg,
                        const std::vector<PositiveRule>& positive,
                        const std::vector<NegativeRule>& negative,
                        const RunControl& control, WorkStealingPool* pool) {
  std::string fault;
  std::optional<DimeResult> result =
      TryRunOnPool(pg, positive, negative, control, pool, &fault);
  if (result.has_value()) return std::move(*result);
  DIME_LOG(WARNING) << "DIME+ task fault (" << fault
                    << "); rerunning the group on one executor";
  WorkStealingPool inline_pool(PoolOptions{1});
  result = TryRunOnPool(pg, positive, negative, control, &inline_pool, &fault);
  if (result.has_value()) return std::move(*result);
  return internal::NoPartitionsResult(
      InternalError("DIME+ task fault on the rerun: " + fault),
      negative.size());
}

}  // namespace

DimeResult RunDimePlusSharded(const PreparedGroup& pg,
                              const std::vector<PositiveRule>& positive,
                              const std::vector<NegativeRule>& negative,
                              const ShardedOptions& options,
                              const RunControl& control) {
  if (pg.size() == 0) {
    return internal::NoPartitionsResult(OkStatus(), negative.size());
  }
  PoolRef ref(options);
  return RunWithRerun(pg, positive, negative, control, ref.pool);
}

DimeResult RunDimePlusSharded(const PreparedGroup& pg,
                              const std::vector<PositiveRule>& positive,
                              const std::vector<NegativeRule>& negative,
                              const ShardedOptions& options) {
  return RunDimePlusSharded(pg, positive, negative, options, RunControl{});
}

}  // namespace exec

DimeResult RunDimePlus(const PreparedGroup& pg,
                       const std::vector<PositiveRule>& positive,
                       const std::vector<NegativeRule>& negative,
                       const RunControl& control) {
  exec::ShardedOptions one_executor;
  one_executor.num_threads = 1;
  return exec::RunDimePlusSharded(pg, positive, negative, one_executor,
                                  control);
}

DimeResult RunDimePlus(const PreparedGroup& pg,
                       const std::vector<PositiveRule>& positive,
                       const std::vector<NegativeRule>& negative) {
  return RunDimePlus(pg, positive, negative, RunControl{});
}

DimeResult RunDimePlus(const Group& group,
                       const std::vector<PositiveRule>& positive,
                       const std::vector<NegativeRule>& negative,
                       const DimeContext& context) {
  PreparedGroup pg = PrepareGroup(group, positive, negative, context);
  return RunDimePlus(pg, positive, negative);
}

}  // namespace dime
