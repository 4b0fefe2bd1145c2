#include "src/core/dime_plus_internal.h"

#include <algorithm>

#include "src/index/group_by_signature.h"

namespace dime {
namespace internal {

void PivotSigMap::Build(const std::vector<std::vector<uint64_t>>& pivot_sigs) {
  size_t total = 0;
  for (const std::vector<uint64_t>& sigs : pivot_sigs) total += sigs.size();
  GroupBySignature<uint32_t>(
      total,
      [&pivot_sigs](const auto& emit) {
        for (size_t i = 0; i < pivot_sigs.size(); ++i) {
          for (uint64_t s : pivot_sigs[i]) emit(s, static_cast<uint32_t>(i));
        }
      },
      &entries_);
}

void PivotSigMap::AdoptSorted(std::vector<Entry> entries) {
  entries_ = std::move(entries);
}

PivotSigMap::PosRun PivotSigMap::Find(uint64_t s) const {
  auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), s,
      [](const Entry& e, uint64_t v) { return e.first < v; });
  auto hi = lo;
  while (hi != entries_.end() && hi->first == s) ++hi;
  PosRun run;
  run.ptr = entries_.data() + (lo - entries_.begin());
  run.len = static_cast<size_t>(hi - lo);
  return run;
}

void EnsureNegativeGenerator(const PreparedGroup& pg,
                             const NegativeRule& rule, size_t r,
                             NegativeRuleContext* ctx) {
  if (ctx->gen != nullptr) return;
  ctx->gen = std::make_unique<SignatureGenerator>(
      pg, rule.predicates, Direction::kLe,
      /*rule_tag=*/0x1000 + r);
}

void GeneratePivotSignatures(const std::vector<int>& pivot_entities,
                             size_t begin, size_t end,
                             SignatureScratch* scratch,
                             NegativeRuleContext* ctx) {
  for (size_t i = begin; i < end; ++i) {
    ctx->pivot_sigs[i] =
        ctx->gen->NegativeRuleSignatures(pivot_entities[i], scratch);
  }
}

void BuildNegativeRuleContext(const PreparedGroup& pg,
                              const NegativeRule& rule, size_t r,
                              const std::vector<int>& pivot_entities,
                              SignatureScratch* scratch,
                              NegativeRuleContext* ctx) {
  if (ctx->ready) return;
  EnsureNegativeGenerator(pg, rule, r, ctx);
  ctx->pivot_sigs.resize(pivot_entities.size());
  GeneratePivotSignatures(pivot_entities, 0, pivot_entities.size(), scratch,
                          ctx);
  ctx->pivot_map.Build(ctx->pivot_sigs);
  ctx->ready = true;
}

}  // namespace internal
}  // namespace dime
