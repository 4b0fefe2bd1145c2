// Scholar page cleaning: the paper's motivating scenario end-to-end.
//
// Generates a synthetic Google Scholar page (a few hundred publications
// with planted namesake/garbage errors), runs DIME+ with the paper's
// positive rules and the three-rule negative scrollbar, and prints what a
// user of the Chrome-extension GUI would see: the suggested
// mis-categorized entries at each scrollbar position, with precision and
// recall against the planted ground truth.

#include <cstdio>

#include "src/core/dime_plus.h"
#include "src/core/explain.h"
#include "src/core/metrics.h"
#include "src/repro/review_session.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"

int main() {
  using namespace dime;

  ScholarSetup setup = MakeScholarSetup();
  ScholarGenOptions options;
  options.num_correct = 180;
  options.seed = 2024;
  Group page = GenerateScholarGroup("Nan Tang", options);

  std::printf("Scholar page '%s': %zu publications (%zu planted errors)\n\n",
              page.name.c_str(), page.size(), page.TrueErrorIndices().size());
  std::printf("Positive rules:\n");
  for (const PositiveRule& r : setup.positive) {
    std::printf("  %s\n", r.ToString(page.schema).c_str());
  }
  std::printf("Negative rules (scrollbar order):\n");
  for (const NegativeRule& r : setup.negative) {
    std::printf("  %s\n", r.ToString(page.schema).c_str());
  }

  PreparedGroup prepared =
      PrepareGroup(page, setup.positive, setup.negative, setup.context);
  DimeResult result = RunDimePlus(prepared, setup.positive, setup.negative);

  std::printf("\nStep 1 produced %zu partitions; pivot holds %zu entries.\n",
              result.partitions.size(), result.PivotEntities().size());

  for (size_t k = 0; k < result.flagged_by_prefix.size(); ++k) {
    const std::vector<int>& flagged = result.flagged_by_prefix[k];
    Prf prf = EvaluateFlagged(page, flagged);
    std::printf("\n--- scrollbar position %zu (NR1..NR%zu): %zu suggestions, "
                "P=%.2f R=%.2f ---\n",
                k + 1, k + 1, flagged.size(), prf.precision, prf.recall);
    for (int e : flagged) {
      const Entity& pub = page.entities[e];
      std::printf("  [%s] \"%s\"\n        authors: ",
                  page.truth[e] ? "WRONG " : "actually-ok",
                  pub.value(kScholarTitle)[0].c_str());
      for (size_t a = 0; a < pub.value(kScholarAuthors).size(); ++a) {
        std::printf("%s%s", a ? ", " : "",
                    pub.value(kScholarAuthors)[a].c_str());
      }
      std::printf("\n        venue:   %s\n", pub.value(kScholarVenue)[0].c_str());
      if (k + 1 == result.flagged_by_prefix.size()) {
        Explanation why =
            ExplainFlagged(prepared, setup.negative, result, e);
        std::printf("        why:     %s\n", why.text.c_str());
      }
    }
  }

  // The paper's user-effort argument, quantified: pick the shortest
  // scrollbar prefix covering 90% of the errors and count confirmations.
  size_t prefix = PrefixForCoverage(page, result, 0.9);
  ReviewOutcome review = SimulateReview(page, result, prefix);
  std::printf("\nAt scrollbar position %zu the user reviews %zu suggestions "
              "instead of %zu entries\n(%.0f%% effort saved), finding %zu of "
              "%zu mis-categorized publications.\n",
              prefix, review.suggestions_reviewed, review.group_size,
              review.effort_saved * 100.0, review.errors_found,
              review.errors_found + review.errors_missed);
  return 0;
}
