#include "src/exec/sharded_dime.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
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
/// this right after Wait(); the catch site in RunDimePlusSharded falls
/// back to the serial engine.
void RethrowTaskFault(const TaskGroup& group) {
  std::exception_ptr e = group.exception();
  if (e != nullptr) std::rethrow_exception(e);
}

std::string FaultText(const std::exception* e) {
  return e != nullptr ? e->what() : "worker thread failed";
}

/// Chunky-task sizing: elements per task so every executor gets several
/// tasks (for stealing to balance) without drowning in scheduling noise.
size_t ChunkSize(size_t total, unsigned threads, size_t floor_size) {
  const size_t chunks = static_cast<size_t>(threads) * 4;
  return std::max(floor_size, (total + chunks - 1) / chunks);
}

// ---------------------------------------------------------------------------
// RunDimePlusSharded: Algorithm 2 — parallel signature postings, pooled
// grouping into inverted lists, volume-balanced verification, prebuilt
// negative contexts, one partition scan per task.
// ---------------------------------------------------------------------------

/// A slice of one inverted list to verify: rows [row_begin, row_end) of
/// `list` against every later element. Slicing rows keeps a stop-word
/// flood list (one signature on every entity) from serializing the run.
struct VerifySlice {
  size_t rule = 0;
  const int* list = nullptr;
  size_t len = 0;
  size_t row_begin = 0;
  size_t row_end = 0;

  size_t volume() const {
    // sum over rows i of (len - 1 - i)
    const size_t rows = row_end - row_begin;
    const size_t first = len - 1 - row_begin;
    const size_t last = len - row_end;
    return rows * (first + last) / 2;
  }
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

DimeResult RunDimePlusShardedInner(const PreparedGroup& pg,
                                   const std::vector<PositiveRule>& positive,
                                   const std::vector<NegativeRule>& negative,
                                   const RunControl& control,
                                   WorkStealingPool* pool) {
  DimeResult result;
  const int n = static_cast<int>(pg.size());
  const unsigned threads = pool->thread_count();

  std::atomic<uint64_t> kernel_exits{0};

  // ---- Step 1a: per-rule inverted lists. ---------------------------------
  // Per-chunk tasks generate (sig, entity) postings with private
  // scratches; the pool then groups each rule's postings by signature
  // into lists. Chunks hold ascending entities and are read in order, so
  // the stable grouping reproduces exactly the runs InvertedIndex's
  // freeze builds from ascending Add()s. Every list of two or more
  // entities becomes a verify slice; a single entity holds no pair.
  // arenas[r] holds rule r's lists back to back, in signature order;
  // `lists` holds the slices of each rule's bucket ranges in turn.
  std::vector<std::vector<int>> arenas(positive.size());
  std::vector<std::vector<VerifySlice>> lists;
  {
    std::vector<std::unique_ptr<SignatureGenerator>> gens(positive.size());
    std::vector<std::vector<std::vector<std::pair<uint64_t, int>>>> chunks(
        positive.size());
    const size_t chunk = ChunkSize(static_cast<size_t>(n), threads, 512);
    const size_t num_chunks = (static_cast<size_t>(n) + chunk - 1) / chunk;
    TaskGroup gen_group(pool);
    for (size_t r = 0; r < positive.size(); ++r) {
      gens[r] = std::make_unique<SignatureGenerator>(
          pg, positive[r].predicates, Direction::kGe,
          /*rule_tag=*/r + 1);
      chunks[r].resize(num_chunks);
      for (size_t c = 0; c < num_chunks; ++c) {
        gen_group.Spawn([&pg, &gens, &chunks, &control, &gen_group, chunk, r,
                         c, n] {
          Status st =
              internal::CheckRunControl(control, "dime_plus/index-rule");
          if (!st.ok()) {
            gen_group.RecordControl(std::move(st));
            return;
          }
          SignatureScratch scratch;
          std::vector<std::pair<uint64_t, int>>& out = chunks[r][c];
          const size_t end =
              std::min(static_cast<size_t>(n), (c + 1) * chunk);
          for (size_t e = c * chunk; e < end; ++e) {
            const std::vector<uint64_t>& sigs = gens[r]->PositiveRuleSignatures(
                static_cast<int>(e), &scratch);
            for (uint64_t s : sigs) {
              out.emplace_back(s, static_cast<int>(e));
            }
          }
        });
      }
    }
    gen_group.Wait();
    RethrowTaskFault(gen_group);
    if (!gen_group.control_status().ok()) {
      return internal::NoPartitionsResult(gen_group.control_status(),
                                          negative.size());
    }
    for (size_t r = 0; r < positive.size(); ++r) {
      std::vector<std::vector<std::pair<uint64_t, int>>>& parts = chunks[r];
      size_t total = 0;
      for (const auto& c : parts) total += c.size();
      // Each chunk is freed once scattered; each bucket-range task copies
      // its entities into the arena and returns its lists as slices.
      std::vector<std::pair<uint64_t, int>> postings;
      arenas[r].resize(total);
      int* arena = arenas[r].data();
      std::vector<std::vector<VerifySlice>> range_lists =
          GroupBySignature<int>(
              pool, total, parts.size(),
              [&parts](size_t p, const auto& emit) {
                for (const std::pair<uint64_t, int>& e : parts[p]) {
                  emit(e.first, e.second);
                }
              },
              [&parts](size_t p) {
                std::vector<std::pair<uint64_t, int>>().swap(parts[p]);
              },
              &postings,
              [&postings, arena, r](size_t begin, size_t end) {
                const std::pair<uint64_t, int>* in = postings.data();
                std::vector<VerifySlice> found;
                size_t run = begin;
                for (size_t i = begin; i < end; ++i) {
                  arena[i] = in[i].second;
                  if (i + 1 < end && in[i + 1].first == in[i].first) continue;
                  const size_t len = i + 1 - run;
                  if (len >= 2) {
                    found.push_back(VerifySlice{r, arena + run, len, 0, len});
                  }
                  run = i + 1;
                }
                return found;
              });
      for (std::vector<VerifySlice>& range : range_lists) {
        lists.push_back(std::move(range));
      }
    }
  }

  // ---- Step 1b: volume-balanced candidate verification. ------------------
  StripedUnionFind uf(static_cast<size_t>(n));
  std::atomic<size_t> pos_checks{0};
  std::atomic<size_t> trans_skips{0};
  {
    // Pack the lists' row slices into near-equal-volume tasks.
    size_t total_volume = 0, num_lists = 0;
    for (const std::vector<VerifySlice>& range : lists) {
      for (const VerifySlice& s : range) total_volume += s.volume();
      num_lists += range.size();
    }
    result.stats.candidate_pairs = total_volume;

    const size_t target_volume =
        std::max<size_t>(1 << 12, ChunkSize(total_volume, threads, 1));
    // Split oversized lists (the stop-word flood) by rows so no single
    // slice dominates the schedule.
    std::vector<VerifySlice> balanced;
    balanced.reserve(num_lists);
    for (const std::vector<VerifySlice>& range : lists) {
      for (const VerifySlice& s : range) {
        if (s.volume() <= 2 * target_volume) {
          balanced.push_back(s);
          continue;
        }
        size_t row = 0;
        while (row < s.len) {
          VerifySlice part = s;
          part.row_begin = row;
          size_t vol = 0;
          while (row < s.len && vol < target_volume) {
            vol += s.len - 1 - row;
            ++row;
          }
          part.row_end = row;
          balanced.push_back(part);
        }
      }
    }
    std::vector<std::vector<VerifySlice>>().swap(lists);

    TaskGroup verify_group(pool);
    size_t batch_begin = 0, batch_volume = 0;
    auto spawn_batch = [&](size_t batch_end) {
      if (batch_end == batch_begin) return;
      verify_group.Spawn([&pg, &positive, &uf, &control, &verify_group,
                          &balanced, &pos_checks, &trans_skips, &kernel_exits,
                          batch_begin, batch_end] {
        if (DIME_FAULT_POINT(failpoints::kWorkerFault)) {
          throw std::runtime_error("injected worker fault (step 1)");
        }
        const uint64_t exits_before = KernelEarlyExits();
        size_t local_checks = 0, local_skips = 0;
        constexpr size_t kCheckStride = 256;
        size_t until_check = kCheckStride;
        for (size_t b = batch_begin; b < batch_end; ++b) {
          const VerifySlice& s = balanced[b];
          // Whole-list transitivity skip, valid only when the slice
          // covers the full list. Connected() never reports falsely
          // true, so a concurrent merge can only turn a pair skip into
          // a (redundant but harmless) verification.
          if (s.row_begin == 0 && s.row_end == s.len) {
            bool all_connected = true;
            for (size_t i = 1; i < s.len; ++i) {
              if (!uf.Connected(s.list[0], s.list[i])) {
                all_connected = false;
                break;
              }
            }
            if (all_connected) {
              local_skips += s.len * (s.len - 1) / 2;
              continue;
            }
          }
          for (size_t i = s.row_begin; i < s.row_end; ++i) {
            for (size_t j = i + 1; j < s.len; ++j) {
              int e1 = s.list[i], e2 = s.list[j];
              if (e1 == e2) continue;
              if (e1 > e2) std::swap(e1, e2);
              if (--until_check == 0) {
                until_check = kCheckStride;
                Status st = internal::CheckRunControl(
                    control, "dime_plus/verify-candidates");
                if (!st.ok()) {
                  verify_group.RecordControl(std::move(st));
                  pos_checks.fetch_add(local_checks,
                                       std::memory_order_relaxed);
                  trans_skips.fetch_add(local_skips,
                                        std::memory_order_relaxed);
                  kernel_exits.fetch_add(KernelEarlyExits() - exits_before,
                                         std::memory_order_relaxed);
                  return;
                }
              }
              if (uf.Connected(e1, e2)) {
                ++local_skips;
                continue;
              }
              ++local_checks;
              if (EvalPositiveRule(pg, positive[s.rule], e1, e2)) {
                uf.Union(e1, e2);
              }
            }
          }
        }
        pos_checks.fetch_add(local_checks, std::memory_order_relaxed);
        trans_skips.fetch_add(local_skips, std::memory_order_relaxed);
        kernel_exits.fetch_add(KernelEarlyExits() - exits_before,
                               std::memory_order_relaxed);
      });
      batch_begin = batch_end;
      batch_volume = 0;
    };
    for (size_t b = 0; b < balanced.size(); ++b) {
      batch_volume += balanced[b].volume();
      if (batch_volume >= target_volume) spawn_batch(b + 1);
    }
    spawn_batch(balanced.size());
    verify_group.Wait();
    RethrowTaskFault(verify_group);
    if (!verify_group.control_status().ok()) {
      return internal::NoPartitionsResult(verify_group.control_status(),
                                          negative.size());
    }
  }
  result.stats.positive_pair_checks = pos_checks.load();
  result.stats.pairs_skipped_by_transitivity = trans_skips.load();
  result.partitions = uf.Components();

  // ---- Step 2. -----------------------------------------------------------
  result.pivot = internal::PickPivot(result.partitions);

  // ---- Step 3: prebuilt rule contexts, one partition scan per task. ------
  std::vector<int> first_flagging(result.partitions.size(), -1);
  if (result.pivot >= 0 && !negative.empty()) {
    const std::vector<int>& pivot_entities = result.partitions[result.pivot];

    // Build every rule's context eagerly (pivot signatures in chunk
    // tasks, then the map grouped on the pool straight from those
    // chunks): the serial engine builds lazily because a rule may never
    // be consulted, but here the partition scans run concurrently and all
    // share the read-only contexts.
    std::vector<internal::NegativeRuleContext> contexts(negative.size());
    bool contexts_ready = true;
    const size_t chunk = ChunkSize(pivot_entities.size(), threads, 256);
    {
      TaskGroup ctx_group(pool);
      for (size_t r = 0; r < negative.size(); ++r) {
        internal::NegativeRuleContext& ctx = contexts[r];
        internal::EnsureNegativeGenerator(pg, negative[r], r, &ctx);
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
            internal::GeneratePivotSignatures(pivot_entities, b, e, &scratch,
                                              &ctx);
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
        contexts[r].ready = true;
      }

      auto rule_context =
          [&contexts](size_t r) -> const internal::NegativeRuleContext& {
        return contexts[r];
      };
      std::atomic<size_t> neg_checks{0};
      std::atomic<size_t> pruned{0};
      ScratchFreeList scratches;
      TaskGroup flag_group(pool);
      for (size_t p = 0; p < result.partitions.size(); ++p) {
        if (static_cast<int>(p) == result.pivot) continue;
        flag_group.Spawn([&pg, &negative, &result, &control,
                          &flag_group, &pivot_entities, &first_flagging,
                          &rule_context, &scratches, &neg_checks, &pruned,
                          &kernel_exits, p] {
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
              pg, negative, pivot_entities, result.partitions[p],
              rule_context, scratch, &local);
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
  // A task fault reruns the group on the serial engine, with a WARNING.
  auto degrade = [&](const std::exception* e) {
    DIME_LOG(WARNING) << "RunDimePlusSharded worker fault (" << FaultText(e)
                      << "); falling back to the serial engine";
    return RunDimePlus(pg, positive, negative, control);
  };
  try {
    return RunDimePlusShardedInner(pg, positive, negative, control, ref.pool);
  } catch (const std::exception& e) {
    return degrade(&e);
  } catch (...) {
    return degrade(nullptr);
  }
}

DimeResult RunDimePlusSharded(const PreparedGroup& pg,
                              const std::vector<PositiveRule>& positive,
                              const std::vector<NegativeRule>& negative,
                              const ShardedOptions& options) {
  return RunDimePlusSharded(pg, positive, negative, options, RunControl{});
}

}  // namespace exec
}  // namespace dime
