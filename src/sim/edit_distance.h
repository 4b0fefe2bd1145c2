#ifndef DIME_SIM_EDIT_DISTANCE_H_
#define DIME_SIM_EDIT_DISTANCE_H_

#include <cstddef>
#include <string_view>

/// \file edit_distance.h
/// Character-based similarity (Section II). The exact and threshold-aware
/// entry points are backed by Myers' bit-parallel algorithm (64 pattern
/// rows per machine word): a single-word fast path when the shorter string
/// fits in one word, a blocked multi-word variant for longer strings, and
/// a banded variant that only advances the blocks intersecting the
/// |i - j| <= max_dist band and abandons as soon as the column minimum
/// provably exceeds the threshold. Distances are integers, so every
/// variant returns exactly what the classic DP returns and the decisions
/// downstream (EditSimilarityAtLeast/AtMost, rule plans) are bit-identical;
/// the DP twins survive in `internal` as differential-test references.

namespace dime {

/// Plain Levenshtein distance. Bit-parallel: O(|b|) words when the shorter
/// string fits in 64 chars, O(|a| / 64 * |b|) otherwise.
size_t EditDistance(std::string_view a, std::string_view b);

/// Banded Levenshtein: returns the exact distance if it is <= `max_dist`,
/// otherwise returns `max_dist + 1`. Bit-parallel with block-level banding:
/// O(min(max_dist, |a|) / 64 * |b|) block updates.
size_t EditDistanceWithin(std::string_view a, std::string_view b,
                          size_t max_dist);

/// Normalized edit similarity: 1 - ED(a, b) / max(|a|, |b|).
/// Both empty -> 1.0.
double EditSimilarity(std::string_view a, std::string_view b);

/// True iff EditSimilarity(a, b) >= tau - eps (eps = kSimCompareEps,
/// matching Predicate::Compare on Direction::kGe) — the positive-rule
/// comparison, decided with the banded variant so the cost matches the
/// threshold. Bit-identical to `Predicate::Compare(EditSimilarity(a, b),
/// kGe)`.
bool EditSimilarityAtLeast(std::string_view a, std::string_view b, double tau);

/// True iff EditSimilarity(a, b) <= sigma + eps (eps = kSimCompareEps,
/// matching Predicate::Compare on Direction::kLe) — the negative-rule
/// comparison, decided with the banded variant instead of the full
/// distance. Bit-identical to `Predicate::Compare(EditSimilarity(a, b),
/// kLe)`.
bool EditSimilarityAtMost(std::string_view a, std::string_view b,
                          double sigma);

/// The largest edit distance d such that some partner string could still
/// have EditSimilarity >= tau with a string of length `len`:
/// d <= (1 - tau) * len / tau. Used by q-gram signature generation. For
/// tau <= 0 returns a huge bound (no filtering possible).
size_t MaxEditDistanceForSim(size_t len, double tau);

namespace internal {

/// The classic two-row DP. Reference implementation for the differential
/// tests; not used on any hot path.
size_t EditDistanceDP(std::string_view a, std::string_view b);

/// The banded DP with the EditDistanceWithin contract (exact if
/// <= max_dist, else max_dist + 1). Differential-test reference.
size_t EditDistanceWithinDP(std::string_view a, std::string_view b,
                            size_t max_dist);

/// Myers single-word bit-parallel distance; requires
/// min(|a|, |b|) <= 64. Exact.
size_t MyersDistanceSingleWord(std::string_view a, std::string_view b);

/// Myers blocked multi-word distance, any lengths. Exact. (Also valid for
/// strings that fit in one word — used by tests to pin the block logic at
/// the 63/64/65 boundaries.)
size_t MyersDistanceBlocked(std::string_view a, std::string_view b);

/// Myers banded distance with the EditDistanceWithin contract.
size_t MyersDistanceBanded(std::string_view a, std::string_view b,
                           size_t max_dist);

}  // namespace internal

}  // namespace dime

#endif  // DIME_SIM_EDIT_DISTANCE_H_
