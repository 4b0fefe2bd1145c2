#ifndef DIME_SIM_SIMILARITY_H_
#define DIME_SIM_SIMILARITY_H_

#include <string>
#include <string_view>

/// \file similarity.h
/// Unified descriptors for the three classes of similarity functions the
/// paper supports (Section II): set-based (overlap, Jaccard, Dice, cosine),
/// character-based (edit similarity) and ontology-based. Rules reference
/// similarity functions through these descriptors; evaluation against
/// prepared entity representations lives in core/preprocess.h.

namespace dime {

/// The one tolerance every threshold comparison applies: a predicate
/// holds iff `sim >= theta - eps` (positive rules) or `sim <= sigma + eps`
/// (negative rules). Predicate::Compare, the threshold-aware kernels
/// (e.g. `SetSimilarityAtLeast(f, a, b, t) == (SetSimilarity(f, a, b) >=
/// t - eps)` exactly), the rule plans and the negative-rule signature lift
/// `sigma + eps` all use it; the dual guarantee of core/signature.h holds
/// only while they agree.
inline constexpr double kSimCompareEps = 1e-9;

/// The similarity-function library F.
enum class SimFunc : int {
  kOverlap = 0,    ///< |A ∩ B| (absolute count; thresholds are counts)
  kJaccard = 1,    ///< |A ∩ B| / |A ∪ B|
  kDice = 2,       ///< 2|A ∩ B| / (|A| + |B|)
  kCosine = 3,     ///< |A ∩ B| / sqrt(|A||B|)
  kEditSim = 4,    ///< 1 - ED(a, b) / max(|a|, |b|)
  kOntology = 5,   ///< 2|LCA(n, n')| / (|n| + |n'|)
  /// IDF-weighted extensions (beyond the paper's three classes): rare
  /// tokens count for more, so sharing "Desulfurization" means more than
  /// sharing "data". Weights are idf = ln(1 + n/df) over the group.
  kWeightedJaccard = 6,  ///< w(A ∩ B) / w(A ∪ B)
  kWeightedCosine = 7,   ///< Σ_{∩} w² / (‖A‖‖B‖), binary tf
};

/// How a multi-valued attribute is turned into a token set for the
/// set-based functions.
enum class TokenMode : int {
  kValueList = 0,  ///< each element of the value list is one token (Authors)
  kWords = 1,      ///< word-tokenize the concatenated text (Title)
};

/// Stable lower-case name ("overlap", "jaccard", ...).
const char* SimFuncName(SimFunc func);

/// Parses a name produced by SimFuncName. Returns false on unknown names.
bool SimFuncFromName(std::string_view name, SimFunc* out);

/// True for overlap/Jaccard/Dice/cosine (unweighted).
bool IsSetBased(SimFunc func);

/// True for the IDF-weighted set functions.
bool IsWeightedSetBased(SimFunc func);

/// True if the function's range is [0, 1] (everything except kOverlap).
bool IsNormalized(SimFunc func);

}  // namespace dime

#endif  // DIME_SIM_SIMILARITY_H_
