// Figure 7: effectiveness of tuning negative rules (the scrollbar).
//  (a) Google Scholar: macro-averaged P/R/F after NR1, NR1vNR2, NR1vNR2vNR3.
//  (b)-(d) Amazon: P/R/F of NR1 and NR1vNR2 while the error rate varies.
//
// The expected shape: recall rises with every extra negative rule (more
// mis-categorized entities are captured) while precision falls (correct
// entities that are merely not-so-similar start being flagged).

#include <vector>

#include "bench/bench_util.h"
#include "src/core/dime_plus.h"
#include "src/datagen/amazon_gen.h"
#include "src/datagen/scholar_gen.h"
#include "src/repro/experiments.h"

namespace dime {
namespace {

using bench::PrintTitle;
using bench::QuickMode;

void RunScholar() {
  PrintTitle("Fig. 7(a)  Scholar: scrollbar over NR1..NR3");
  ScholarSetup setup = MakeScholarSetup();
  const size_t num_groups = QuickMode() ? 5 : 20;
  ScholarGenOptions gen;
  gen.num_correct = QuickMode() ? 120 : 320;

  std::vector<std::vector<Prf>> per_rule(setup.negative.size());
  for (size_t i = 0; i < num_groups; ++i) {
    gen.seed = 100 + i;
    Group group = GenerateScholarGroup("Scholar " + std::to_string(i), gen);
    DimeResult r =
        RunDimePlus(group, setup.positive, setup.negative, setup.context);
    for (size_t k = 0; k < r.flagged_by_prefix.size(); ++k) {
      per_rule[k].push_back(EvaluateFlagged(group, r.flagged_by_prefix[k]));
    }
  }
  for (size_t k = 0; k < per_rule.size(); ++k) {
    Prf avg = MacroAverage(per_rule[k]);
    std::printf("NR1..NR%zu: P=%.2f  R=%.2f  F=%.2f\n", k + 1, avg.precision,
                avg.recall, avg.f1);
  }
}

void RunAmazon() {
  PrintTitle("Fig. 7(b-d)  Amazon: scrollbar vs error rate");
  const size_t products = QuickMode() ? 80 : 200;
  const std::vector<int> categories =
      QuickMode() ? std::vector<int>{0, 6, 14}
                  : std::vector<int>{0, 4, 6, 10, 14, 18};

  std::printf("%-6s | %-22s | %-22s\n", "e%", "NR1 (P/R/F)", "NR1vNR2 (P/R/F)");
  bench::PrintRule();
  for (double e : {0.1, 0.2, 0.3, 0.4}) {
    AmazonGenOptions gen;
    gen.num_correct = products;
    gen.error_rate = e;
    std::vector<Group> groups;
    for (int c : categories) {
      gen.seed = 40 + c;
      groups.push_back(GenerateAmazonGroup(c, gen));
    }
    AmazonSetup setup = MakeAmazonSetup(groups);
    std::vector<Prf> nr1, nr2;
    for (const Group& group : groups) {
      DimeResult r =
          RunDimePlus(group, setup.positive, setup.negative, setup.context);
      nr1.push_back(EvaluateFlagged(group, r.flagged_by_prefix[0]));
      nr2.push_back(EvaluateFlagged(group, r.flagged_by_prefix[1]));
    }
    Prf a = MacroAverage(nr1), b = MacroAverage(nr2);
    std::printf("%-6.0f | %.2f / %.2f / %.2f     | %.2f / %.2f / %.2f\n",
                e * 100, a.precision, a.recall, a.f1, b.precision, b.recall,
                b.f1);
  }
}

}  // namespace
}  // namespace dime

int main() {
  dime::RunScholar();
  std::printf("\n");
  dime::RunAmazon();
  return 0;
}
