#include "src/index/verification.h"

#include <algorithm>

namespace dime {

double SimilarProbability(size_t shared, size_t sig_count1,
                          size_t sig_count2) {
  double avg = (static_cast<double>(sig_count1) +
                static_cast<double>(sig_count2)) /
               2.0;
  if (avg <= 0.0) return 0.0;
  return std::min(1.0, static_cast<double>(shared) / avg);
}

double PositiveBenefit(double probability, double cost) {
  return probability / std::max(cost, 1e-9);
}

}  // namespace dime
