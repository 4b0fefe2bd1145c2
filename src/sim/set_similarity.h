#ifndef DIME_SIM_SET_SIMILARITY_H_
#define DIME_SIM_SET_SIMILARITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/rank_span.h"
#include "src/sim/similarity.h"

/// \file set_similarity.h
/// Set-based similarity over canonical token representations. The canonical
/// per-value representation is a strictly ascending vector of global token
/// ranks (rarest token first), produced by TokenDictionary; intersections
/// then reduce to a sorted-merge in O(|a| + |b|), matching the verification
/// cost model of Section III/IV-C.
///
/// Two kinds of kernels:
///
///  * exact-value kernels (`SetSimilarity` and friends) — compute the
///    similarity; used where the value itself is needed (rule generation,
///    feature extraction, explanations);
///  * threshold-aware kernels (`IntersectionAtLeast`,
///    `SetSimilarityAtLeast` / `AtMost`) — decide `f(A, B) vs threshold`
///    and stop at the decision point: as soon as the remaining elements
///    cannot reach — or cannot miss — the required overlap. Decisions are
///    bit-identical to computing the exact kernel and comparing (the
///    required overlap is derived from the very same floating-point
///    expression the exact kernel evaluates), so the filter–verification
///    engines can use them without changing any output.

namespace dime {

/// Size of the intersection of two strictly ascending runs. Dispatches to
/// an AVX2 block kernel (8 lanes, all-pairs block compare) when the CPU
/// has it and both runs are dense enough; the scalar merge otherwise.
/// Counts are integers, so both paths return identical values (see
/// simd_dispatch.h for the twin contract and the DIME_FORCE_SCALAR
/// override).
size_t IntersectionSize(RankSpan a, RankSpan b);

/// True iff |a ∩ b| >= required. Early-exits as soon as the overlap
/// already counted can no longer miss `required`, or the elements left on
/// the shorter remaining side can no longer reach it; when one input is
/// much longer than the other the kernel gallops (exponential probe +
/// binary search) through the long side instead of merging. Worst case
/// O(|a| + |b|); typical far less.
bool IntersectionAtLeast(RankSpan a, RankSpan b, size_t required);

/// The exact similarity value `func` yields for an intersection of size
/// `overlap` between inputs of the given sizes — the same floating-point
/// expression the exact kernels evaluate, so threshold decisions derived
/// from it match the exact kernels bit for bit. Exposed for tests and for
/// single-merge-pass callers (SetSimilarityStrings).
double SetSimilarityFromOverlap(SimFunc func, size_t overlap, size_t size_a,
                                size_t size_b);

/// The smallest intersection size that satisfies `func >= theta - eps`
/// between inputs of the given sizes, i.e. min(size_a, size_b) + 1 when no
/// overlap can (unsatisfiable). Computed from the closed-form inversion of
/// the similarity formula, nudged to the exact boundary with the same
/// floating-point predicate the exact kernels evaluate — O(1) instead of
/// a per-pair binary search. Exposed for tests.
size_t MinOverlapForAtLeast(SimFunc func, size_t size_a, size_t size_b,
                            double theta);

/// Threshold-aware check `func(a, b) >= theta - eps` (the positive-rule
/// comparison, eps = kSimCompareEps). Decides without computing the exact
/// value; bit-identical to `SetSimilarity(func, a, b) >= theta - eps`.
bool SetSimilarityAtLeast(SimFunc func, RankSpan a, RankSpan b, double theta);

/// Threshold-aware check `func(a, b) <= sigma + eps` (the negative-rule
/// comparison). Bit-identical to `SetSimilarity(func, a, b) <= sigma + eps`.
bool SetSimilarityAtMost(SimFunc func, RankSpan a, RankSpan b, double sigma);

/// Monotone count of threshold-aware kernel invocations (set-based and
/// weighted) that decided before consuming their inputs, for the calling
/// thread. Engines snapshot deltas around a run and report them as
/// DimeResult::Stats::kernel_early_exits.
uint64_t KernelEarlyExits();

namespace internal {
/// Bumps the calling thread's early-exit counter (kernel-internal).
void BumpKernelEarlyExit();

/// Scalar reference twins of the dispatching kernels above: always take
/// the portable merge path regardless of ActiveSimdLevel(). Differential
/// tests compare these against the dispatched kernels under both force
/// modes; not for production use.
size_t IntersectionSizeScalar(RankSpan a, RankSpan b);
bool IntersectionAtLeastScalar(RankSpan a, RankSpan b, size_t required);
}  // namespace internal

/// Overlap similarity |A ∩ B| (a count, not normalized).
double OverlapSim(RankSpan a, RankSpan b);

/// Jaccard similarity |A ∩ B| / |A ∪ B|; 1.0 when both sets are empty.
double JaccardSim(RankSpan a, RankSpan b);

/// Dice similarity 2|A ∩ B| / (|A| + |B|); 1.0 when both sets are empty.
double DiceSim(RankSpan a, RankSpan b);

/// Cosine similarity |A ∩ B| / sqrt(|A||B|); 1.0 when both sets are empty.
double CosineSim(RankSpan a, RankSpan b);

/// Dispatches to the function above matching `func` (must be set-based).
double SetSimilarity(SimFunc func, RankSpan a, RankSpan b);

/// Convenience overloads on string sets (sorted + deduplicated internally);
/// used by tests and by code paths that have not interned tokens.
double SetSimilarityStrings(SimFunc func, std::vector<std::string> a,
                            std::vector<std::string> b);

/// The length of the prefix (of a rank-sorted value of size `size`) that
/// must be indexed so that any partner value with similarity >= `theta`
/// shares at least one prefix token (prefix-filtering principle,
/// Section IV-B). Returns 0 when no partner can reach `theta` (the value is
/// too small), in which case the value generates no signatures.
///
/// For kOverlap, `theta` is a count: prefix length is |v| - theta + 1.
/// For normalized set functions the bound uses the partner-size-free
/// relaxation (e.g. Jaccard >= t implies overlap >= t * |v|).
size_t SetPrefixLength(SimFunc func, size_t size, double theta);

}  // namespace dime

#endif  // DIME_SIM_SET_SIMILARITY_H_
