#ifndef DIME_CORE_PREPROCESS_H_
#define DIME_CORE_PREPROCESS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/entity/entity.h"
#include "src/ontology/ontology.h"
#include "src/rules/rule.h"
#include "src/sim/rank_span.h"

/// \file preprocess.h
/// Turns a raw Group into the canonical per-attribute representations that
/// rule evaluation, signature generation and the baselines all consume:
///
///  * set-based predicates    -> strictly ascending global-rank vectors
///                               (rarest token first; Section IV-B ordering)
///  * character-based         -> lower-cased joined text + rank-sorted
///                               q-gram vectors
///  * ontology-based          -> one mapped tree node per entity
///
/// Preparation is driven by the rules that will actually run, so only the
/// representations a rule references are built.
///
/// Rank vectors live in one contiguous arena per attribute/mode (a CSR
/// layout: arena + per-entity offsets) rather than a vector-of-vectors.
/// The verification hot path touches two entities' ranks per candidate
/// pair in essentially random order; with the arena those reads are two
/// offset lookups into memory laid out in entity order instead of two
/// pointer chases to independently heap-allocated vectors, and building
/// the group does one allocation per attribute/mode instead of one per
/// entity.
///
/// Preparation splits a group into fixed chunks of kPrepareChunkEntities
/// entities. A group of one chunk is prepared on the caller's thread; a
/// larger one on a private work-stealing pool, each chunk interning into
/// its own dictionary. The chunk dictionaries merge in chunk order, so the
/// ranks are byte-identical to a one-chunk build whatever the thread
/// count (DESIGN.md §7.3, "Preparation in chunks"). The merged
/// dictionary only assigns the ranks: a PreparedGroup keeps ranks,
/// weights and masses, never the tokens.

namespace dime {

/// Entities per preparation chunk. The split depends on the group size
/// alone, never on the thread count.
inline constexpr size_t kPrepareChunkEntities = 8192;

/// q of the q-grams behind edit-similarity signatures (§IV-B): strings
/// within edit distance d share one of their first q*d + 1 q-grams.
inline constexpr int kQGramLength = 2;

/// One attribute/mode's rank vectors for every entity, flattened CSR-style:
/// entity e's strictly ascending ranks live at arena[offsets[e] ..
/// offsets[e+1]). Two storage modes share the read API:
///
///  * owned    — built by preparation (Adopt), backed by vectors;
///  * borrowed — BorrowStorage() points the column at externally owned
///               arrays (the snapshot store maps these straight off disk,
///               zero-copy). A borrowed column is immutable; the caller
///               guarantees the backing outlives the column.
///
/// Offsets are uint64_t so the owned layout is bit-identical to the
/// serialized one — a snapshot load is a pointer swap, not a widening
/// copy.
class RankColumn {
 public:
  /// Takes a fully built owned layout: `offsets` has `rows + 1` monotone
  /// entries with offsets[0] == 0, `arena` holds offsets[rows] elements.
  /// Replaces any content (owned or borrowed).
  void Adopt(std::vector<uint32_t> arena, std::vector<uint64_t> offsets) {
    DIME_DCHECK(!offsets.empty() && offsets.front() == 0 &&
                offsets.back() == arena.size());
    arena_ = std::move(arena);
    offsets_ = std::move(offsets);
    ext_arena_ = nullptr;
    ext_offsets_ = nullptr;
    ext_rows_ = 0;
  }

  /// Points the column at external storage: `offsets` has `rows + 1`
  /// monotone entries with offsets[0] == 0; `arena` holds
  /// offsets[rows] elements. Replaces any owned content.
  void BorrowStorage(const uint32_t* arena, const uint64_t* offsets,
                     size_t rows) {
    arena_.clear();
    offsets_.clear();
    ext_arena_ = arena;
    ext_offsets_ = offsets;
    ext_rows_ = rows;
  }

  bool borrowed() const { return ext_offsets_ != nullptr; }

  /// Borrowed view of entity e's ranks. Valid until the column is
  /// destroyed or re-adopted (or, in borrowed mode, until the external
  /// backing goes away).
  RankSpan view(size_t e) const {
    const uint64_t* off = offsets_ptr();
    return RankSpan(arena_ptr() + off[e], off[e + 1] - off[e]);
  }

  size_t size(size_t e) const {
    const uint64_t* off = offsets_ptr();
    return off[e + 1] - off[e];
  }
  size_t num_entities() const {
    return borrowed() ? ext_rows_ : offsets_.size() - 1;
  }
  size_t total_ranks() const {
    return borrowed() ? ext_offsets_[ext_rows_] : arena_.size();
  }

  /// Raw storage, mode-independent (snapshot serialization).
  const uint32_t* arena_ptr() const {
    return borrowed() ? ext_arena_ : arena_.data();
  }
  const uint64_t* offsets_ptr() const {
    return borrowed() ? ext_offsets_ : offsets_.data();
  }

 private:
  // Owned mode. A copied column copies these and re-derives the data
  // pointers per call, so copies are safe in either mode.
  std::vector<uint32_t> arena_;
  std::vector<uint64_t> offsets_{0};
  // Borrowed mode (null when owned).
  const uint32_t* ext_arena_ = nullptr;
  const uint64_t* ext_offsets_ = nullptr;
  size_t ext_rows_ = 0;
};

/// How an attribute value is mapped onto an ontology node.
enum class MapMode : int {
  kExactName = 0,  ///< lookup the value (or one of its tokens) by node name
  kKeyword = 1,    ///< keyword voting over word tokens (LDA hierarchies)
  /// kExactName, falling back to the node whose name has the highest edit
  /// similarity (>= 0.8) with the value — the paper's footnote 2: "We can
  /// also use approximate matching based on similarity functions".
  kFuzzyName = 2,
};

/// One ontology usable by kOntology predicates, addressed by index. Refs
/// own their trees (several may share one), so a context keeps them alive.
struct OntologyRef {
  std::shared_ptr<const Ontology> tree;
  MapMode mode = MapMode::kExactName;
};

/// Shared evaluation context.
struct DimeContext {
  std::vector<OntologyRef> ontologies;
};

/// Prepared representations for one attribute. Only the members a rule
/// references are populated (check the has_* flags).
struct PreparedAttr {
  bool has_value_list = false;
  bool has_words = false;
  bool has_text = false;

  /// Ascending rank runs for TokenMode::kValueList, one per entity.
  RankColumn value_ranks;
  /// Ascending rank runs for TokenMode::kWords, one per entity.
  RankColumn word_ranks;
  /// IDF weight of each token, indexed by rank (parallel to the rank
  /// spaces above); built alongside the rank vectors and consumed by the
  /// weighted similarity functions.
  std::vector<double> value_weights;
  std::vector<double> word_weights;
  /// Per entity: precomputed total weight (weighted Jaccard) and squared
  /// weight norm (weighted cosine) of the value/word rank runs, so the
  /// threshold-aware weighted kernels get their per-side masses without a
  /// per-pair pass.
  std::vector<double> value_mass, word_mass;
  std::vector<double> value_sqnorm, word_sqnorm;
  /// Per entity: lower-cased joined text (character-based functions).
  std::vector<std::string> text;
  /// Ascending rank runs over q-grams of `text`, one per entity.
  RankColumn qgram_ranks;
  /// Per ontology index: per entity mapped node (kNoNode when unmapped).
  std::unordered_map<int, std::vector<int>> nodes;
};

/// A Group plus everything the engines need to evaluate rules on it.
struct PreparedGroup {
  const Group* group = nullptr;
  DimeContext context;
  std::vector<PreparedAttr> attrs;  ///< parallel to the schema

  size_t size() const { return group->size(); }
};

/// Which representations an attribute needs for a set of predicates
/// (exposed so tests can build a per-entity preparation reference).
struct AttrRequirements {
  bool value_list = false;
  bool words = false;
  bool text = false;
  std::vector<int> ontology_indexes;
};

/// Scans `predicates` and reports the requirements per attribute.
std::vector<AttrRequirements> ComputeAttrRequirements(
    size_t num_attrs, const std::vector<Predicate>& predicates);

/// Lower-cased space-joined text of a multi-valued attribute (the
/// canonical character-based representation).
std::string JoinAttributeText(const AttributeValue& value);

/// Maps an attribute value onto a node of `tree` under `mode` (kNoNode if
/// unmappable). Exact mode tries the full value, each element, and every
/// contiguous token span, preferring the deepest hit.
int MapAttributeToNode(const Ontology& tree, MapMode mode,
                       const AttributeValue& value);

/// Validates that every predicate of the rules is evaluable against
/// `schema` under `context`: attribute indexes in range, ontology indexes
/// backed by a tree, thresholds within the function's range, and no
/// vacuous positive predicates (which would defeat signature filtering).
/// Returns an empty string when valid, else a human-readable reason.
std::string ValidateRules(const Schema& schema,
                          const std::vector<PositiveRule>& positive,
                          const std::vector<NegativeRule>& negative,
                          const DimeContext& context);

/// Builds representations for every predicate of `positive` and `negative`.
PreparedGroup PrepareGroup(const Group& group,
                           const std::vector<PositiveRule>& positive,
                           const std::vector<NegativeRule>& negative,
                           const DimeContext& context);

/// Variant that prepares for an explicit predicate list (rule generation
/// prepares for the whole candidate feature library).
PreparedGroup PrepareGroupForPredicates(const Group& group,
                                        const std::vector<Predicate>& preds,
                                        const DimeContext& context);

/// Exact similarity of `pred` between entities e1 and e2: the reference
/// every threshold decision must agree with (rule generation, the
/// baselines and explanations read the value itself).
double PredicateSimilarity(const PreparedGroup& pg, const Predicate& pred,
                           int e1, int e2);

/// One predicate resolved against a PreparedGroup: the kernel kind, the
/// column pointers and the threshold, hoisted out of the O(n^2) pair
/// loops. Rules are evaluated only through plans: attribute indexing,
/// token-mode selection and the ontology node-map lookup run once per
/// rule per run, and each check is a single switch into the
/// threshold-aware kernels (set-based predicates through the
/// IntersectionAtLeast-derived kernels, weighted ones through the bounded
/// merge, edit similarity through the banded verifier). Each stops at the
/// decision point instead of computing the exact value, while deciding
/// bit-identically to `pred.Compare(PredicateSimilarity(...), dir)`.
///
/// A plan borrows storage from the PreparedGroup it was built against and
/// is invalidated by any mutation of the group — build it, run the pair
/// loops, drop it.
struct PredicatePlan {
  enum class Kind : uint8_t { kSet, kWeighted, kEditSim, kOntology };
  Kind kind = Kind::kSet;
  Direction dir = Direction::kGe;
  SimFunc func = SimFunc::kOverlap;
  double threshold = 0.0;
  const RankColumn* ranks = nullptr;             ///< kSet / kWeighted
  const std::vector<double>* weights = nullptr;  ///< kWeighted
  const double* mass = nullptr;                  ///< kWeighted, per entity
  const std::string* text = nullptr;             ///< kEditSim, per entity
  const int* nodes = nullptr;                    ///< kOntology, per entity
  const Ontology* tree = nullptr;                ///< kOntology
};

/// A rule's predicates resolved in the rule's order (the short-circuit
/// order, which pair-check counters and kernel early exits depend on).
using RulePlan = std::vector<PredicatePlan>;

/// Resolves `predicates` against `pg` for evaluation under `dir`.
RulePlan BuildRulePlan(const PreparedGroup& pg,
                       const std::vector<Predicate>& predicates, Direction dir);

/// Threshold-aware check of one resolved predicate on (e1, e2).
bool PlanPredicateHolds(const PredicatePlan& p, int e1, int e2);

/// True iff every predicate of the plan holds, in plan order,
/// short-circuiting on the first that fails.
inline bool EvalRulePlan(const RulePlan& plan, int e1, int e2) {
  for (const PredicatePlan& p : plan) {
    if (!PlanPredicateHolds(p, e1, e2)) return false;
  }
  return true;
}

/// Estimated verification cost C(e1, e2) of a rule, per Section IV-C:
/// O(|a|+|b|) for set functions, O(band * min) for edit similarity,
/// O(depth_a + depth_b) for ontology similarity (an unmapped entity
/// counts depth 1). At least 1.
double RuleVerificationCost(const RulePlan& plan, int e1, int e2);

}  // namespace dime

#endif  // DIME_CORE_PREPROCESS_H_
