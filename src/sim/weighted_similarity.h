#ifndef DIME_SIM_WEIGHTED_SIMILARITY_H_
#define DIME_SIM_WEIGHTED_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "src/sim/rank_span.h"
#include "src/sim/similarity.h"

/// \file weighted_similarity.h
/// IDF-weighted set similarity (the library's extension beyond the paper's
/// three similarity classes). Values are the usual strictly ascending
/// rank vectors; `weights[r]` is the weight of the token with rank r
/// (idf = ln(1 + n/df), computed by preprocessing). Because ranks order
/// tokens by ascending document frequency, rank order == descending
/// weight order, which is exactly the ordering weighted prefix filtering
/// needs.
///
/// Alongside the exact kernels there are threshold-aware variants
/// (`WeightedSimilarityAtLeast` / `AtMost`) used by the verification hot
/// path. Unlike the unweighted kernels these cannot reduce the decision to
/// an integer overlap, so they interleave conservative bound checks with
/// the exact merge: an early answer is only taken when the bound clears
/// the threshold by a safety margin that dwarfs floating-point accumulation
/// error, and otherwise the merge runs to completion accumulating in the
/// exact same order as the exact kernel — so the decision is always
/// bit-identical to computing the exact similarity and comparing.

namespace dime {

/// w(A ∩ B) / w(A ∪ B); 1.0 when both sets are empty.
double WeightedJaccardSim(RankSpan a, RankSpan b,
                          const std::vector<double>& weights);

/// Binary-tf cosine: Σ_{t∈A∩B} w_t² / (‖A‖‖B‖) with ‖X‖ = sqrt(Σ w²);
/// 1.0 when both sets are empty.
double WeightedCosineSim(RankSpan a, RankSpan b,
                         const std::vector<double>& weights);

/// Dispatches on `func` (must satisfy IsWeightedSetBased).
double WeightedSetSimilarity(SimFunc func, RankSpan a, RankSpan b,
                             const std::vector<double>& weights);

/// Total weight w(X) of a value — the precomputed per-entity mass the
/// weighted-Jaccard threshold kernels take. Summation is in rank order so
/// preprocessing and the kernels agree bit for bit.
double TotalWeight(RankSpan v, const std::vector<double>& weights);

/// Squared norm Σ w² of a value, in rank order; the precomputed per-entity
/// mass the weighted-cosine threshold kernels take.
double SquaredWeightNorm(RankSpan v, const std::vector<double>& weights);

/// Threshold-aware check `func(a, b) >= theta - eps` (eps = kSimCompareEps, matching
/// Predicate::Compare). `mass_a` / `mass_b` are TotalWeight for
/// kWeightedJaccard and SquaredWeightNorm for kWeightedCosine, computed
/// over the same spans and weights. Bit-identical to evaluating the exact
/// kernel and comparing.
bool WeightedSimilarityAtLeast(SimFunc func, RankSpan a, RankSpan b,
                               const std::vector<double>& weights,
                               double mass_a, double mass_b, double theta);

/// Threshold-aware check `func(a, b) <= sigma + eps`; same contract.
bool WeightedSimilarityAtMost(SimFunc func, RankSpan a, RankSpan b,
                              const std::vector<double>& weights,
                              double mass_a, double mass_b, double sigma);

/// Weighted prefix filtering: the shortest prefix of `ranks` (descending
/// weight) such that no partner intersecting only the suffix can reach
/// `threshold`. Guarantees: if sim(A, B) >= threshold then
/// prefix(A) ∩ prefix(B) != ∅. Returns 0 when the value cannot reach the
/// threshold with any partner (empty value), `ranks.size()` when no
/// filtering is possible (threshold <= 0).
size_t WeightedPrefixLength(SimFunc func, RankSpan ranks,
                            const std::vector<double>& weights,
                            double threshold);

/// The per-group token weights: idf(r) = ln(1 + n / df(r)) for each rank.
std::vector<double> IdfWeightsByRank(const std::vector<uint32_t>& doc_freq_by_rank,
                                     size_t num_documents);

}  // namespace dime

#endif  // DIME_SIM_WEIGHTED_SIMILARITY_H_
