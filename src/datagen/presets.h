#ifndef DIME_DATAGEN_PRESETS_H_
#define DIME_DATAGEN_PRESETS_H_

#include <cstddef>
#include <vector>

#include "src/core/corpus.h"
#include "src/core/preprocess.h"
#include "src/rules/rule.h"

/// \file presets.h
/// The Scholar configuration of Section VI-A (schema, venue tree, rules)
/// and the demo corpus the serving binaries generate from it. The
/// experiment half — feature libraries, CR and SIFI configurations, the
/// Amazon setup and the benchmark corpora — is in src/repro/experiments.h.

namespace dime {

/// Configuration for Google-Scholar-style groups.
struct ScholarSetup {
  Schema schema;
  /// context.ontologies[0] = venue tree (VenueOntology()), exact-name
  /// mapping (Venue); context.ontologies[1] = the same tree, keyword
  /// mapping (Title).
  DimeContext context;
  /// phi_1+: overlap(Authors) >= 2
  /// phi_2+: overlap(Authors) >= 1 ^ ontology(Venue) >= 0.75
  std::vector<PositiveRule> positive;
  /// NR1: overlap(Authors) <= 0
  /// NR2: overlap(Authors) <= 1 ^ ontology(Venue) <= 0.25
  /// NR3: overlap(Authors) <= 1 ^ ontology(Title) <= 0.7
  ///
  /// (The paper states NR3 with threshold 0.25; our title hierarchy maps
  /// titles to depth-3 subfield nodes where "different subfield" is 2/3,
  /// so the equivalent cut sits at 0.7 — see EXPERIMENTS.md.)
  std::vector<NegativeRule> negative;
};

ScholarSetup MakeScholarSetup();

/// The most pages `--demo-pages` accepts: 1024 pages of ~130 entities
/// each, ~130k entities in all.
inline constexpr size_t kMaxDemoPages = 1024;

/// The corpus `dime_server --demo --demo-pages <pages>` serves and
/// `dime_snapshot build --demo` writes: MakeScholarSetup()'s rules and
/// venue tree over Scholar groups of ~130 entities named
/// page_0..page_{pages-1}.
Corpus MakeDemoCorpus(size_t pages);

}  // namespace dime

#endif  // DIME_DATAGEN_PRESETS_H_
