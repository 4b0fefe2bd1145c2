#ifndef DIME_INDEX_VERIFICATION_H_
#define DIME_INDEX_VERIFICATION_H_

#include <cstddef>

/// \file verification.h
/// The benefit model of Sections IV-C and IV-D: B = P / C, verified in
/// descending order. DIME+'s step 3 orders each member's candidate pivot
/// entities by it, most likely similar (and cheapest) first: one violating
/// pair settles that member, so the likely violations are tried before
/// the likely satisfied pairs.

namespace dime {

/// Approximates the probability that a candidate pair satisfies the rule:
/// the ratio of shared signatures to the average signature count
/// (Section IV-C, "Similar Probability").
double SimilarProbability(size_t shared, size_t sig_count1, size_t sig_count2);

/// Benefit B = P / C of verifying a candidate pair.
double PositiveBenefit(double probability, double cost);

}  // namespace dime

#endif  // DIME_INDEX_VERIFICATION_H_
