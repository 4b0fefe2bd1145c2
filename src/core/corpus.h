#ifndef DIME_CORE_CORPUS_H_
#define DIME_CORE_CORPUS_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/preprocess.h"
#include "src/entity/entity.h"
#include "src/ontology/ontology.h"
#include "src/rules/rule.h"

/// \file corpus.h
/// What DIME reads before it checks anything (paper §II, §VI-A): the
/// groups, the positive and negative rules over their schema, and the
/// ontology trees the rules' ontology(·) predicates map onto. Every front
/// end (`dime_server`, `dime_snapshot build`, `dime_cli`, `dime_delta
/// replay`) turns its command line into a Corpus through the one flag
/// parser and the one loader below; the generated demo corpus (`--demo`)
/// comes from src/datagen/presets.h.

namespace dime {

/// One corpus as loaded: plain data, not yet prepared. Servers turn it
/// into a ServingCorpus (store/epoch.h), which prepares every group.
struct Corpus {
  Schema schema;
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  /// Refs to the built-in venue tree and the loaded tree files.
  DimeContext context;
  /// Every group has `schema`.
  std::vector<Group> groups;
};

/// Where a corpus comes from on the command line.
struct CorpusSources {
  /// Group TSVs (LoadGroup), each named by its path.
  std::vector<std::string> group_paths;
  /// Rule set file (rule_io.h); empty: none.
  std::string rules_path;
  /// Rule texts given inline (`dime_cli --positive/--negative`), appended
  /// after the file's rules.
  std::vector<std::string> positive_rules;
  std::vector<std::string> negative_rules;
  /// The built-in venue tree as ontology index 0 (exact names) and 1
  /// (title keywords), before any `ontologies`.
  bool venue_ontology = false;
  /// Tree files (Ontology::ToText), in flag order.
  struct Tree {
    std::string path;
    MapMode mode = MapMode::kExactName;
  };
  std::vector<Tree> ontologies;
};

/// If argv[*i] is one of the shared source flags, records it (and its
/// value, advancing *i) in `sources` and returns true; any other argument
/// is left alone (false). The flags:
///   --rules <file>        `rules_path`
///   --venue-ontology      `venue_ontology`
///   --ontology <tree>     appends to `ontologies`, mapped by exact names
///   --ontology-mode exact|keyword
///                         the mapping of the preceding --ontology
/// INVALID_ARGUMENT for a flag without its value, an --ontology-mode
/// without a preceding --ontology, or a mode other than exact|keyword.
StatusOr<bool> ParseCorpusFlag(int argc, char** argv, int* i,
                               CorpusSources* sources);

/// Loads `sources`: the groups (their LoadGroup status on failure), the
/// schema check (INVALID_ARGUMENT naming a group whose schema differs from
/// the first group's), the ontology trees (the venue tree first, then
/// each --ontology; Ontology::LoadFromFile's status), the rule file
/// (LoadRuleSet's status) and inline rules (INVALID_ARGUMENT), then
/// ValidateRules (INVALID_ARGUMENT).
StatusOr<Corpus> LoadCorpus(const CorpusSources& sources);

}  // namespace dime

#endif  // DIME_CORE_CORPUS_H_
