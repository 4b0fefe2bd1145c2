// The user-effort claim of Section I, quantified: "Guoliang Li has 178
// Google Scholar entries, where 6 are mis-categorized. We will discover 5
// to 10 with different negative rules, which saves Guoliang from checking
// 178 entries." For each scrollbar position this bench reports how many
// suggestions a user reviews (via InteractiveReview with a truth oracle),
// what fraction of the errors that surfaces, and the effort saved against
// reviewing the whole page — including with an imperfect user.

#include <vector>

#include "bench/bench_util.h"
#include "src/core/dime_plus.h"
#include "src/repro/review_session.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"

int main() {
  using namespace dime;
  bench::PrintTitle("Review effort vs coverage (Scholar scrollbar)");

  ScholarSetup setup = MakeScholarSetup();
  const size_t num_pages = bench::QuickMode() ? 6 : 20;

  std::printf("%-9s | %9s | %9s | %13s | %8s\n", "position", "reviews",
              "coverage", "effort saved", "F(clean)");
  bench::PrintRule();
  for (size_t k = 1; k <= setup.negative.size(); ++k) {
    size_t reviews = 0, entities = 0;
    double coverage = 0, f_clean = 0;
    for (size_t i = 0; i < num_pages; ++i) {
      ScholarGenOptions gen = bench::DetailPageOptions(i, bench::QuickMode());
      Group page = GenerateScholarGroup("Effort Page " + std::to_string(i),
                                        gen);
      DimeResult r =
          RunDimePlus(page, setup.positive, setup.negative, setup.context);
      ReviewOutcome outcome = SimulateReview(page, r, k);
      InteractiveOutcome session = InteractiveReview(
          page, r, k, NoisyTruthOracle(page, /*mistake_rate=*/0.0, i));
      reviews += outcome.suggestions_reviewed;
      entities += page.size();
      coverage += outcome.coverage;
      f_clean += session.quality.f1;
    }
    std::printf("NR1..NR%zu  | %9zu | %8.0f%% | %12.1f%% | %8.2f\n", k,
                reviews, 100.0 * coverage / num_pages,
                100.0 * (1.0 - static_cast<double>(reviews) /
                                   static_cast<double>(entities)),
                f_clean / num_pages);
  }

  std::printf("\nWith an imperfect user (5%% confirmation mistakes), final "
              "prefix:\n");
  double f_noisy = 0;
  for (size_t i = 0; i < num_pages; ++i) {
    ScholarGenOptions gen = bench::DetailPageOptions(i, bench::QuickMode());
    Group page =
        GenerateScholarGroup("Effort Page " + std::to_string(i), gen);
    DimeResult r =
        RunDimePlus(page, setup.positive, setup.negative, setup.context);
    InteractiveOutcome session =
        InteractiveReview(page, r, setup.negative.size(),
                          NoisyTruthOracle(page, 0.05, 1000 + i));
    f_noisy += session.quality.f1;
  }
  std::printf("  F(clean) = %.2f (vs perfect-user above)\n",
              f_noisy / num_pages);
  return 0;
}
