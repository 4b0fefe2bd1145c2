// Amazon catalog cleaning: the paper's second application domain.
//
// Builds several product categories with injected cross-department
// products, fits the LDA theme hierarchy over the descriptions (the
// Description ontology of Section VI-A), and runs DIME+ per category.
// Shows the learned theme tree in action: the same MapByKeywords call that
// powers the fon(Description) predicates is used to display each flagged
// product's theme.

#include <cstdio>

#include "src/core/dime_plus.h"
#include "src/core/metrics.h"
#include "src/datagen/amazon_gen.h"
#include "src/repro/experiments.h"
#include "src/text/tokenizer.h"

int main() {
  using namespace dime;

  AmazonGenOptions options;
  options.num_correct = 120;
  options.error_rate = 0.15;

  std::vector<int> categories{0, 6, 14};  // Router, Blender, Board Game
  std::vector<Group> corpus;
  for (int c : categories) {
    options.seed = 7 + c;
    corpus.push_back(GenerateAmazonGroup(c, options));
  }

  std::printf("Fitting the description theme hierarchy (two-level LDA) on "
              "%zu + %zu + %zu products...\n",
              corpus[0].size(), corpus[1].size(), corpus[2].size());
  AmazonSetup setup = MakeAmazonSetup(corpus);
  const Ontology& themes = *setup.context.ontologies[0].tree;
  std::printf("Theme tree: %d nodes, depth %d.\n\n", themes.NumNodes(),
              themes.MaxDepth());

  for (const Group& category : corpus) {
    DimeResult result =
        RunDimePlus(category, setup.positive, setup.negative, setup.context);
    Prf prf = EvaluateFlagged(category, result.flagged());
    std::printf("Category '%s' (%zu products, %zu injected): flagged %zu "
                "(P=%.2f R=%.2f F=%.2f)\n",
                category.name.c_str(), category.size(),
                category.TrueErrorIndices().size(), result.flagged().size(),
                prf.precision, prf.recall, prf.f1);
    size_t shown = 0;
    for (int e : result.flagged()) {
      if (++shown > 4) {
        std::printf("    ... and %zu more\n", result.flagged().size() - 4);
        break;
      }
      const Entity& p = category.entities[e];
      int theme = themes.MapByKeywords(
          WordTokenize(p.value(kAmazonDescription)[0]));
      std::printf("    [%s] %s  (theme: %s)\n",
                  category.truth[e] ? "WRONG " : "actually-ok",
                  p.value(kAmazonTitle)[0].c_str(),
                  theme == kNoNode ? "?" : themes.Name(theme).c_str());
    }
    std::printf("\n");
  }
  return 0;
}
