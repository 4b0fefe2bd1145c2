#ifndef DIME_DATAGEN_DBGEN_GEN_H_
#define DIME_DATAGEN_DBGEN_GEN_H_

#include <cstdint>

#include "src/entity/entity.h"
#include "src/rules/rule.h"

/// \file dbgen_gen.h
/// DBGen-style large-group generator for the scale experiment (the
/// Gen(20k)..Gen(100k) table in Section VI-B). The paper uses the UT
/// Austin "DBGen/Riddle" record generator; we synthesize groups with the
/// same structure the experiment needs: one dominant block of records
/// connected through shared reference tokens and overlapping name words,
/// plus a tail of small blocks that play the mis-categorized role. Two
/// positive and two negative matching rules are provided, matching the
/// experiment's setup ("two positive entity matching rules and two
/// negative entity matching rules").

namespace dime {

struct DbgenOptions {
  size_t num_entities = 20000;
  double core_fraction = 0.85;  ///< entities in the dominant block
  size_t window = 20;           ///< reference-sharing neighborhood
  size_t refs_per_entity = 5;
  size_t name_words = 4;
  size_t small_block_max = 6;   ///< max size of tail blocks
  uint64_t seed = 1;
};

Schema DbgenSchema();

inline constexpr int kDbgenName = 0;
inline constexpr int kDbgenRefs = 1;

/// Generates the group (truth marks the tail blocks as errors).
Group GenerateDbgenGroup(const DbgenOptions& options);

/// The preset for the sharded-engine scale experiments (DESIGN.md §7.9).
/// Per-entity structure (window, refs, name words) is the 20k default, so
/// signature-list lengths stay bounded and the candidate volume grows
/// linearly with n — the regime where the engine's near-linear multicore
/// scaling is measurable. The canonical definition shared by the ctest
/// `scale` smoke and perfbench's batch-scale workload.
DbgenOptions DbgenPreset100k(uint64_t seed = 1);

/// The two positive and two negative rules used by the scale experiment.
std::vector<PositiveRule> DbgenPositiveRules();
std::vector<NegativeRule> DbgenNegativeRules();

}  // namespace dime

#endif  // DIME_DATAGEN_DBGEN_GEN_H_
