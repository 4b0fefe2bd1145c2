#include "src/core/corpus.h"

#include <memory>
#include <utility>

#include "src/ontology/builtin.h"
#include "src/rules/rule_io.h"

namespace dime {

StatusOr<bool> ParseCorpusFlag(int argc, char** argv, int* i,
                               CorpusSources* sources) {
  const std::string arg = argv[*i];
  const bool takes_value =
      arg == "--rules" || arg == "--ontology" || arg == "--ontology-mode";
  if (!takes_value) {
    if (arg != "--venue-ontology") return false;
    sources->venue_ontology = true;
    return true;
  }
  if (*i + 1 >= argc) return InvalidArgumentError("missing value after " + arg);
  const std::string value = argv[++*i];
  if (arg == "--rules") {
    sources->rules_path = value;
  } else if (arg == "--ontology") {
    sources->ontologies.push_back({value, MapMode::kExactName});
  } else {
    if (sources->ontologies.empty()) {
      return InvalidArgumentError(
          "--ontology-mode needs a preceding --ontology");
    }
    if (value == "exact") {
      sources->ontologies.back().mode = MapMode::kExactName;
    } else if (value == "keyword") {
      sources->ontologies.back().mode = MapMode::kKeyword;
    } else {
      return InvalidArgumentError("--ontology-mode must be exact or keyword, "
                                  "got \"" + value + "\"");
    }
  }
  return true;
}

StatusOr<Corpus> LoadCorpus(const CorpusSources& sources) {
  if (sources.group_paths.empty()) {
    return InvalidArgumentError("a corpus needs at least one group");
  }
  Corpus corpus;
  for (const std::string& path : sources.group_paths) {
    Group group;
    Status loaded = LoadGroup(path, path, &group);
    if (!loaded.ok()) return loaded;
    corpus.groups.push_back(std::move(group));
  }
  corpus.schema = corpus.groups.front().schema;
  for (const Group& group : corpus.groups) {
    if (group.schema.attribute_names() != corpus.schema.attribute_names()) {
      return InvalidArgumentError("group '" + group.name +
                                  "' disagrees with the corpus schema");
    }
  }

  if (sources.venue_ontology) {
    corpus.context.ontologies.push_back(
        OntologyRef{VenueOntology(), MapMode::kExactName});
    corpus.context.ontologies.push_back(
        OntologyRef{VenueOntology(), MapMode::kKeyword});
  }
  for (const CorpusSources::Tree& source : sources.ontologies) {
    auto tree = std::make_shared<Ontology>();
    Status loaded = Ontology::LoadFromFile(source.path, tree.get());
    if (!loaded.ok()) return loaded;
    corpus.context.ontologies.push_back(
        OntologyRef{std::move(tree), source.mode});
  }

  if (!sources.rules_path.empty()) {
    Status loaded = LoadRuleSet(sources.rules_path, corpus.schema,
                                &corpus.positive, &corpus.negative);
    if (!loaded.ok()) return loaded;
  }
  for (const std::string& text : sources.positive_rules) {
    PositiveRule rule;
    if (!ParsePositiveRule(text, corpus.schema, &rule)) {
      return InvalidArgumentError("bad positive rule: " + text);
    }
    corpus.positive.push_back(std::move(rule));
  }
  for (const std::string& text : sources.negative_rules) {
    NegativeRule rule;
    if (!ParseNegativeRule(text, corpus.schema, &rule)) {
      return InvalidArgumentError("bad negative rule: " + text);
    }
    corpus.negative.push_back(std::move(rule));
  }
  std::string invalid = ValidateRules(corpus.schema, corpus.positive,
                                      corpus.negative, corpus.context);
  if (!invalid.empty()) {
    return InvalidArgumentError("invalid rules: " + invalid);
  }
  return corpus;
}

}  // namespace dime
