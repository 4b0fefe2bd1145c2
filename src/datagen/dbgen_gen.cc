#include "src/datagen/dbgen_gen.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/random.h"

namespace dime {
namespace {

/// Shared vocabulary for core names; tail blocks use disjoint words.
std::string CoreWord(size_t i) { return "word" + std::to_string(i); }
std::string CoreRef(size_t i) { return "ref" + std::to_string(i); }

}  // namespace

Schema DbgenSchema() { return Schema({"Name", "Refs"}); }

Group GenerateDbgenGroup(const DbgenOptions& options) {
  Random rng(options.seed);
  Group group;
  group.name = "Gen(" + std::to_string(options.num_entities) + ")";
  group.schema = DbgenSchema();

  const size_t core = static_cast<size_t>(
      options.core_fraction * static_cast<double>(options.num_entities));

  std::vector<std::pair<Entity, uint8_t>> rows;
  rows.reserve(options.num_entities);

  // Core block: references drawn from a sliding window over a shared token
  // space, names from a slowly-moving vocabulary region. Neighbors share
  // refs (phi_1) and name words (phi_2), chaining everything together.
  for (size_t i = 0; i < core; ++i) {
    Entity e;
    e.id = "g" + std::to_string(i);
    e.values.resize(2);
    std::vector<std::string> name;
    size_t name_base = i / 64;  // 64 consecutive entities share a region
    for (size_t w = 0; w < options.name_words; ++w) {
      name.push_back(CoreWord(name_base * 3 + rng.Uniform(6)));
    }
    e.values[kDbgenName] = {std::string()};
    std::string joined;
    for (size_t w = 0; w < name.size(); ++w) {
      if (w > 0) joined.push_back(' ');
      joined += name[w];
    }
    e.values[kDbgenName] = {joined};

    std::vector<std::string> refs;
    size_t lo = i > options.window ? i - options.window : 0;
    size_t hi = std::min(core - 1, i + options.window);
    for (size_t r = 0; r < options.refs_per_entity; ++r) {
      refs.push_back(CoreRef(lo + rng.Uniform(hi - lo + 1)));
    }
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
    e.values[kDbgenRefs] = std::move(refs);
    rows.emplace_back(std::move(e), 0);
  }

  // Tail: small blocks with private reference tokens and a private
  // vocabulary; these are the "mis-categorized" records at scale.
  size_t produced = core;
  size_t block_id = 0;
  while (produced < options.num_entities) {
    size_t block =
        std::min<size_t>(1 + rng.Uniform(options.small_block_max),
                         options.num_entities - produced);
    std::string block_tag = "blk" + std::to_string(block_id++);
    for (size_t b = 0; b < block; ++b) {
      Entity e;
      e.id = "t" + std::to_string(produced + b);
      e.values.resize(2);
      std::string joined;
      for (size_t w = 0; w < options.name_words; ++w) {
        if (w > 0) joined.push_back(' ');
        joined += block_tag + "w" + std::to_string(rng.Uniform(5));
      }
      e.values[kDbgenName] = {joined};
      std::vector<std::string> refs;
      for (size_t r = 0; r < options.refs_per_entity; ++r) {
        refs.push_back(block_tag + "r" + std::to_string(rng.Uniform(8)));
      }
      std::sort(refs.begin(), refs.end());
      refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
      e.values[kDbgenRefs] = std::move(refs);
      rows.emplace_back(std::move(e), 1);
    }
    produced += block;
  }

  rng.Shuffle(&rows);
  group.entities.reserve(rows.size());
  group.truth.reserve(rows.size());
  for (auto& [entity, is_error] : rows) {
    group.entities.push_back(std::move(entity));
    group.truth.push_back(is_error);
  }
  return group;
}

DbgenOptions DbgenPreset100k(uint64_t seed) {
  DbgenOptions options;
  options.num_entities = 100000;
  options.seed = seed;
  return options;
}

std::vector<PositiveRule> DbgenPositiveRules() {
  Schema schema = DbgenSchema();
  std::vector<PositiveRule> rules(2);
  DIME_CHECK(ParsePositiveRule("overlap(Refs) >= 2", schema, &rules[0]));
  DIME_CHECK(ParsePositiveRule(
      "overlap(Refs) >= 1 ^ jaccard(Name:words) >= 0.5", schema, &rules[1]));
  return rules;
}

std::vector<NegativeRule> DbgenNegativeRules() {
  Schema schema = DbgenSchema();
  std::vector<NegativeRule> rules(2);
  DIME_CHECK(ParseNegativeRule(
      "overlap(Refs) <= 0 ^ jaccard(Name:words) <= 0.2", schema, &rules[0]));
  DIME_CHECK(ParseNegativeRule(
      "overlap(Refs) <= 1 ^ jaccard(Name:words) <= 0.3", schema, &rules[1]));
  return rules;
}

}  // namespace dime
