#include "src/core/preprocess.h"

#include <algorithm>
#include <cctype>
#include <exception>
#include <memory>
#include <string_view>

#include "src/common/logging.h"
#include "src/common/string_util.h"
// lint: include-layering-ok(large groups prepare on a private pool; pool.h needs only common)
#include "src/exec/pool.h"
#include "src/sim/edit_distance.h"
#include "src/sim/set_similarity.h"
#include "src/sim/weighted_similarity.h"
#include "src/text/token_dictionary.h"
#include "src/text/tokenizer.h"

namespace dime {

std::vector<AttrRequirements> ComputeAttrRequirements(
    size_t num_attrs, const std::vector<Predicate>& predicates) {
  std::vector<AttrRequirements> needs(num_attrs);
  for (const Predicate& p : predicates) {
    DIME_CHECK_GE(p.attr, 0);
    DIME_CHECK_LT(static_cast<size_t>(p.attr), needs.size());
    AttrRequirements& n = needs[p.attr];
    if (IsSetBased(p.func) || IsWeightedSetBased(p.func)) {
      if (p.mode == TokenMode::kValueList) {
        n.value_list = true;
      } else {
        n.words = true;
      }
    } else if (p.func == SimFunc::kEditSim) {
      n.text = true;
    } else if (p.func == SimFunc::kOntology) {
      if (std::find(n.ontology_indexes.begin(), n.ontology_indexes.end(),
                    p.ontology_index) == n.ontology_indexes.end()) {
        n.ontology_indexes.push_back(p.ontology_index);
      }
    }
  }
  return needs;
}

std::string JoinAttributeText(const AttributeValue& value) {
  size_t length = value.empty() ? 0 : value.size() - 1;
  for (const std::string& element : value) length += element.size();
  std::string joined;
  joined.reserve(length);
  for (size_t i = 0; i < value.size(); ++i) {
    if (i > 0) joined.push_back(' ');
    joined.append(value[i]);
  }
  for (char& c : joined) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return joined;
}

/// For kExactName we first try the full joined value, then each list
/// element, then every contiguous token span, preferring the deepest hit
/// (so "SIGMOD 2015" maps to the SIGMOD leaf and "RSC Advances 2001" finds
/// the "RSC Advances" node). For kKeyword we vote with word tokens.
namespace {

/// The node whose (lower-cased) name is most edit-similar to some element
/// or token span of `value`, if any reaches `min_similarity`.
int FuzzyNodeMatch(const Ontology& tree, const AttributeValue& value,
                   double min_similarity) {
  int best = kNoNode;
  double best_sim = min_similarity - 1e-9;
  // What the next hit must reach: min_similarity, then more than the best
  // so far (by more than the epsilon EditSimilarityAtLeast allows).
  double need = min_similarity;
  auto consider = [&](const std::string& text) {
    for (int node = 0; node < tree.NumNodes(); ++node) {
      std::string name = ToLower(tree.Name(node));
      // Cheap length pre-filter before the banded verifier.
      size_t max_len = std::max(name.size(), text.size());
      if (max_len == 0) continue;
      size_t diff = max_len - std::min(name.size(), text.size());
      if (static_cast<double>(max_len - diff) / max_len <= best_sim) {
        continue;
      }
      if (EditSimilarityAtLeast(text, name, need)) {
        best_sim = EditSimilarity(text, name);
        need = best_sim + 2 * kSimCompareEps;
        best = node;
      }
    }
  };
  for (const std::string& element : value) {
    consider(ToLower(std::string(Trim(element))));
  }
  consider(JoinAttributeText(value));
  return best;
}

}  // namespace

int MapAttributeToNode(const Ontology& tree, MapMode mode,
                       const AttributeValue& value) {
  if (mode == MapMode::kKeyword) {
    std::vector<std::string> tokens = WordTokenize(JoinAttributeText(value));
    return tree.MapByKeywords(tokens);
  }
  int best = kNoNode;
  auto consider = [&](int node) {
    if (node == kNoNode) return;
    if (best == kNoNode || tree.Depth(node) > tree.Depth(best)) best = node;
  };
  consider(tree.FindByName(JoinAttributeText(value)));
  std::string span;  // reused by every span probe
  for (const std::string& element : value) {
    consider(tree.FindByName(element));
    std::vector<std::string> tokens = WhitespaceTokenize(element);
    for (size_t i = 0; i < tokens.size(); ++i) {
      span.clear();
      for (size_t j = i; j < tokens.size(); ++j) {
        if (j > i) span.push_back(' ');
        span += tokens[j];
        consider(tree.FindByName(span));
      }
    }
  }
  if (best == kNoNode && mode == MapMode::kFuzzyName) {
    best = FuzzyNodeMatch(tree, value, /*min_similarity=*/0.8);
  }
  return best;
}

namespace {

/// The caller sizes every chunk buffer before the interning tasks run:
/// ids and offsets exactly, the chunk dictionary for the chunk's raw token
/// count up to this cap (8 distinct tokens per entity), past which it
/// grows as usual. Buffers grown inside tasks made the allocator grow and
/// trim its per-thread heaps, whose page-table updates serialized the pool
/// (on a 4-vCPU host a 100k-entity group prepared no faster on four
/// threads than on one), and memory freed into those heaps stayed resident
/// after the threads exited, raising the process's peak.
constexpr size_t kChunkDictionaryTokens = 8 * kPrepareChunkEntities;

/// The token columns an attribute can carry.
enum class TokenColumn { kValues, kWords, kQGrams };

/// One chunk's share of a token column: a dictionary of the chunk's own
/// tokens and, per entity of the chunk, the ascending distinct local ids
/// of its tokens (CSR: row r is ids[offsets[r] .. offsets[r + 1])).
struct ChunkTokens {
  TokenDictionary dict;
  std::vector<TokenId> ids;
  std::vector<uint64_t> offsets{0};
  /// Tokens the chunk interns, duplicates included, and their bytes: the
  /// sizes its buffers are reserved for.
  size_t tokens = 0;
  size_t chars = 0;
};

/// A token column under construction, and the PreparedAttr fields it fills
/// (the weight fields are null for q-grams). The merged dictionary lives
/// only as long as the build: the engines read ranks, never tokens.
struct ColumnBuild {
  int attr = 0;
  TokenColumn column = TokenColumn::kValues;
  std::vector<std::string>* text = nullptr;  ///< q-grams only
  TokenDictionary dict;
  RankColumn* ranks = nullptr;
  std::vector<double>* weights = nullptr;
  std::vector<double>* mass = nullptr;
  std::vector<double>* sqnorm = nullptr;

  std::vector<ChunkTokens> chunks;
  /// Per chunk: local id -> merged id (empty for chunk 0, whose ids are
  /// the merged ones).
  std::vector<std::vector<TokenId>> remaps;
  /// Where each chunk's ids start in the arena (one more entry than
  /// chunks: the last is the arena's size).
  std::vector<uint64_t> chunk_base;
  std::vector<uint32_t> arena;
  std::vector<uint64_t> offsets;
};

ColumnBuild MakeColumn(int a, TokenColumn column, PreparedAttr* attr) {
  ColumnBuild b;
  b.attr = a;
  b.column = column;
  switch (column) {
    case TokenColumn::kValues:
      b.ranks = &attr->value_ranks;
      b.weights = &attr->value_weights;
      b.mass = &attr->value_mass;
      b.sqnorm = &attr->value_sqnorm;
      break;
    case TokenColumn::kWords:
      b.ranks = &attr->word_ranks;
      b.weights = &attr->word_weights;
      b.mass = &attr->word_mass;
      b.sqnorm = &attr->word_sqnorm;
      break;
    case TokenColumn::kQGrams:
      b.text = &attr->text;
      b.ranks = &attr->qgram_ranks;
      break;
  }
  return b;
}

/// Adds to `*tokens` and `*chars` the number of tokens AppendRow interns
/// for one entity (duplicates included) and their bytes.
void CountTokens(TokenColumn column, const AttributeValue& value,
                 std::string_view text, size_t* tokens, size_t* chars) {
  switch (column) {
    case TokenColumn::kValues:
      *tokens += value.size();
      for (const std::string& element : value) *chars += element.size();
      break;
    case TokenColumn::kWords:
      for (const std::string& element : value) {
        bool in_word = false;
        for (char c : element) {
          const bool alnum = std::isalnum(static_cast<unsigned char>(c)) != 0;
          *tokens += alnum && !in_word;
          *chars += alnum;
          in_word = alnum;
        }
      }
      break;
    case TokenColumn::kQGrams:
      ForEachQGram(text, kQGramLength, [&](std::string_view gram) {
        ++*tokens;
        *chars += gram.size();
      });
      break;
  }
}

/// Interns one entity's tokens into `out->dict` and appends them as the
/// entity's row: ascending distinct ids, each counted once toward its
/// document frequency. The tokens are ToLower(Trim(element)) per element
/// for value lists, WordTokenize(JoinAttributeText(value)) for words and
/// QGrams(text, kQGramLength) for q-grams. `scratch` is a reused
/// lower-case buffer.
void AppendRow(TokenColumn column, const AttributeValue& value,
               std::string_view text, std::string* scratch, ChunkTokens* out) {
  const size_t row = out->ids.size();
  auto intern = [out](std::string_view token) {
    out->ids.push_back(out->dict.Intern(token));
  };
  switch (column) {
    case TokenColumn::kValues:
      for (const std::string& element : value) {
        ToLowerInto(Trim(element), scratch);
        intern(*scratch);
      }
      break;
    case TokenColumn::kWords:
      // The joining space ends an alphanumeric run, so the words of the
      // joined text are those of each element on its own.
      for (const std::string& element : value) {
        ForEachWord(element, scratch, intern);
      }
      break;
    case TokenColumn::kQGrams:
      ForEachQGram(text, kQGramLength, intern);
      break;
  }
  const auto begin = out->ids.begin() + static_cast<ptrdiff_t>(row);
  std::sort(begin, out->ids.end());
  out->ids.erase(std::unique(begin, out->ids.end()), out->ids.end());
  out->dict.CountDocument(out->ids.data() + row, out->ids.size() - row);
  out->offsets.push_back(out->ids.size());
}

/// Runs fn(0) .. fn(count - 1): in order on the caller without a pool,
/// else as tasks on `pool`, rethrowing the first task's exception.
template <typename Fn>
void ForEachIndex(exec::WorkStealingPool* pool, size_t count, const Fn& fn) {
  if (pool == nullptr) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  exec::TaskGroup tasks(pool);
  for (size_t i = 0; i < count; ++i) tasks.Spawn([&fn, i] { fn(i); });
  tasks.Wait();
  if (std::exception_ptr e = tasks.exception()) std::rethrow_exception(e);
}

/// One ontology mapping to fill: attribute `attr` onto `ref`'s tree.
struct OntologyJob {
  int attr = 0;
  const OntologyRef* ref = nullptr;
  std::vector<int>* nodes = nullptr;
};

/// Builds every requested representation over fixed chunks of
/// kPrepareChunkEntities entities:
///
///  1. per chunk: count each token column's tokens (joining the q-gram
///     text); the caller then sizes every chunk buffer;
///  2. per chunk: intern each token column into a chunk-local dictionary
///     and map the ontology columns;
///  3. on the caller, per column: merge the chunk dictionaries in chunk
///     order, each in local-id order (a token's merged id is its serial
///     first-seen id, and summed frequencies are the serial ones, since
///     each entity is in one chunk), then rank and weight;
///  4. per chunk: translate local ids to ranks, sort each row into the
///     column's arena, and compute the weighted masses.
///
/// A single chunk runs everything on the caller; more chunks run the
/// per-chunk passes on a private pool.
PreparedGroup PrepareImpl(const Group& group,
                          const std::vector<Predicate>& predicates,
                          const DimeContext& context) {
  PreparedGroup pg;
  pg.group = &group;
  pg.context = context;
  pg.attrs.resize(group.schema.size());

  const std::vector<AttrRequirements> needs =
      ComputeAttrRequirements(group.schema.size(), predicates);

  const size_t n = group.size();
  const size_t num_chunks = std::max<size_t>(
      1, (n + kPrepareChunkEntities - 1) / kPrepareChunkEntities);
  auto chunk_begin = [n](size_t c) {
    return std::min(n, c * kPrepareChunkEntities);
  };

  std::vector<ColumnBuild> columns;
  std::vector<OntologyJob> ontology_jobs;
  for (size_t a = 0; a < pg.attrs.size(); ++a) {
    PreparedAttr& attr = pg.attrs[a];
    const AttrRequirements& need = needs[a];
    const int ai = static_cast<int>(a);
    attr.has_value_list = need.value_list;
    attr.has_words = need.words;
    attr.has_text = need.text;
    if (need.value_list) {
      columns.push_back(MakeColumn(ai, TokenColumn::kValues, &attr));
    }
    if (need.words) {
      columns.push_back(MakeColumn(ai, TokenColumn::kWords, &attr));
    }
    if (need.text) {
      attr.text.resize(n);
      columns.push_back(MakeColumn(ai, TokenColumn::kQGrams, &attr));
    }
    for (int oi : need.ontology_indexes) {
      DIME_CHECK_GE(oi, 0);
      DIME_CHECK_LT(static_cast<size_t>(oi), context.ontologies.size())
          << "predicate references ontology index " << oi
          << " but the context has only " << context.ontologies.size();
      const OntologyRef& ref = context.ontologies[oi];
      DIME_CHECK(ref.tree != nullptr);
      std::vector<int>& nodes = attr.nodes[oi];
      nodes.resize(n);
      ontology_jobs.push_back({ai, &ref, &nodes});
    }
  }
  for (ColumnBuild& col : columns) col.chunks.resize(num_chunks);

  std::unique_ptr<exec::WorkStealingPool> pool;
  if (num_chunks > 1) pool = std::make_unique<exec::WorkStealingPool>();

  ForEachIndex(pool.get(), num_chunks, [&](size_t c) {
    for (ColumnBuild& col : columns) {
      ChunkTokens& out = col.chunks[c];
      for (size_t e = chunk_begin(c); e < chunk_begin(c + 1); ++e) {
        const AttributeValue& value = group.entities[e].value(col.attr);
        std::string_view text;
        if (col.text != nullptr) {
          text = (*col.text)[e] = JoinAttributeText(value);
        }
        CountTokens(col.column, value, text, &out.tokens, &out.chars);
      }
    }
  });
  // Sized on the caller's thread (see kChunkDictionaryTokens). A lone
  // chunk's dictionary grows on the caller as it interns: reserving it
  // for the raw token count would only raise the peak.
  for (ColumnBuild& col : columns) {
    for (size_t c = 0; c < num_chunks; ++c) {
      ChunkTokens& out = col.chunks[c];
      if (pool != nullptr) {
        out.dict.Reserve(std::min(out.tokens, kChunkDictionaryTokens),
                         out.chars);
      }
      out.ids.reserve(out.tokens);
      out.offsets.reserve(chunk_begin(c + 1) - chunk_begin(c) + 1);
    }
  }

  ForEachIndex(pool.get(), num_chunks, [&](size_t c) {
    const size_t begin = chunk_begin(c);
    const size_t end = chunk_begin(c + 1);
    std::string scratch;
    for (ColumnBuild& col : columns) {
      for (size_t e = begin; e < end; ++e) {
        AppendRow(col.column, group.entities[e].value(col.attr),
                  col.text == nullptr ? std::string_view() : (*col.text)[e],
                  &scratch, &col.chunks[c]);
      }
    }
    for (const OntologyJob& job : ontology_jobs) {
      for (size_t e = begin; e < end; ++e) {
        (*job.nodes)[e] = MapAttributeToNode(
            *job.ref->tree, job.ref->mode, group.entities[e].value(job.attr));
      }
    }
  });

  for (ColumnBuild& col : columns) {
    // Chunk 0's ids are already the merged ones: its dictionary starts
    // the merge and its remap stays empty.
    col.dict = std::move(col.chunks[0].dict);
    col.remaps.resize(num_chunks);
    for (size_t c = 1; c < num_chunks; ++c) {
      col.dict.Merge(col.chunks[c].dict, &col.remaps[c]);
      col.chunks[c].dict = TokenDictionary();
    }
    col.dict.BuildGlobalOrder();
    if (col.weights != nullptr) {
      *col.weights = IdfWeightsByRank(col.dict.DocumentFrequencyByRank(), n);
      col.mass->resize(n);
      col.sqnorm->resize(n);
    }
    col.chunk_base.assign(num_chunks + 1, 0);
    for (size_t c = 0; c < num_chunks; ++c) {
      col.chunk_base[c + 1] = col.chunk_base[c] + col.chunks[c].ids.size();
    }
    col.arena.resize(col.chunk_base.back());
    col.offsets.assign(n + 1, 0);
  }

  ForEachIndex(pool.get(), num_chunks, [&](size_t c) {
    const size_t begin = chunk_begin(c);
    for (ColumnBuild& col : columns) {
      const ChunkTokens& chunk = col.chunks[c];
      const std::vector<TokenId>* remap = c == 0 ? nullptr : &col.remaps[c];
      const uint64_t base = col.chunk_base[c];
      uint32_t* ranks = col.arena.data() + base;
      for (size_t i = 0; i < chunk.ids.size(); ++i) {
        const TokenId id =
            remap == nullptr ? chunk.ids[i] : (*remap)[chunk.ids[i]];
        ranks[i] = col.dict.GlobalRank(id);
      }
      for (size_t r = 0; r + 1 < chunk.offsets.size(); ++r) {
        uint32_t* row = ranks + chunk.offsets[r];
        const size_t len = chunk.offsets[r + 1] - chunk.offsets[r];
        std::sort(row, row + len);
        col.offsets[begin + r + 1] = base + chunk.offsets[r + 1];
        if (col.weights != nullptr) {
          const RankSpan span(row, len);
          (*col.mass)[begin + r] = TotalWeight(span, *col.weights);
          (*col.sqnorm)[begin + r] = SquaredWeightNorm(span, *col.weights);
        }
      }
    }
  });

  for (ColumnBuild& col : columns) {
    col.ranks->Adopt(std::move(col.arena), std::move(col.offsets));
  }
  return pg;
}

}  // namespace

namespace {

std::string ValidatePredicate(const Schema& schema, const Predicate& p,
                              Direction dir, const DimeContext& context,
                              const std::string& where) {
  if (p.attr < 0 || static_cast<size_t>(p.attr) >= schema.size()) {
    return where + ": attribute index " + std::to_string(p.attr) +
           " out of range (schema has " + std::to_string(schema.size()) +
           " attributes)";
  }
  if (p.func == SimFunc::kOntology) {
    if (p.ontology_index < 0 ||
        static_cast<size_t>(p.ontology_index) >= context.ontologies.size()) {
      return where + ": ontology index " + std::to_string(p.ontology_index) +
             " not provided by the context";
    }
    if (context.ontologies[p.ontology_index].tree == nullptr) {
      return where + ": ontology " + std::to_string(p.ontology_index) +
             " has a null tree";
    }
  }
  if (IsNormalized(p.func) && (p.threshold < 0.0 || p.threshold > 1.0)) {
    return where + ": threshold " + std::to_string(p.threshold) +
           " outside [0, 1] for " + SimFuncName(p.func);
  }
  if (p.func == SimFunc::kOverlap && p.threshold < 0.0) {
    return where + ": negative overlap threshold";
  }
  if (dir == Direction::kGe) {
    bool vacuous = p.func == SimFunc::kOverlap ? p.threshold < 1.0
                                               : p.threshold <= 0.0;
    if (vacuous) {
      return where + ": vacuous positive predicate (" +
             p.ToString(schema, dir) + " holds for every pair)";
    }
  }
  return "";
}

}  // namespace

std::string ValidateRules(const Schema& schema,
                          const std::vector<PositiveRule>& positive,
                          const std::vector<NegativeRule>& negative,
                          const DimeContext& context) {
  for (size_t r = 0; r < positive.size(); ++r) {
    if (positive[r].predicates.empty()) {
      return "positive rule " + std::to_string(r + 1) + " has no predicates";
    }
    for (const Predicate& p : positive[r].predicates) {
      std::string error =
          ValidatePredicate(schema, p, Direction::kGe, context,
                            "positive rule " + std::to_string(r + 1));
      if (!error.empty()) return error;
    }
  }
  for (size_t r = 0; r < negative.size(); ++r) {
    if (negative[r].predicates.empty()) {
      return "negative rule " + std::to_string(r + 1) + " has no predicates";
    }
    for (const Predicate& p : negative[r].predicates) {
      std::string error =
          ValidatePredicate(schema, p, Direction::kLe, context,
                            "negative rule " + std::to_string(r + 1));
      if (!error.empty()) return error;
    }
  }
  return "";
}

PreparedGroup PrepareGroup(const Group& group,
                           const std::vector<PositiveRule>& positive,
                           const std::vector<NegativeRule>& negative,
                           const DimeContext& context) {
  std::vector<Predicate> all;
  for (const PositiveRule& r : positive) {
    all.insert(all.end(), r.predicates.begin(), r.predicates.end());
  }
  for (const NegativeRule& r : negative) {
    all.insert(all.end(), r.predicates.begin(), r.predicates.end());
  }
  return PrepareImpl(group, all, context);
}

PreparedGroup PrepareGroupForPredicates(const Group& group,
                                        const std::vector<Predicate>& preds,
                                        const DimeContext& context) {
  return PrepareImpl(group, preds, context);
}

double PredicateSimilarity(const PreparedGroup& pg, const Predicate& pred,
                           int e1, int e2) {
  const PreparedAttr& attr = pg.attrs[pred.attr];
  if (IsSetBased(pred.func)) {
    const RankColumn& ranks =
        pred.mode == TokenMode::kValueList ? attr.value_ranks : attr.word_ranks;
    return SetSimilarity(pred.func, ranks.view(e1), ranks.view(e2));
  }
  if (IsWeightedSetBased(pred.func)) {
    const bool values = pred.mode == TokenMode::kValueList;
    const RankColumn& ranks = values ? attr.value_ranks : attr.word_ranks;
    const auto& weights = values ? attr.value_weights : attr.word_weights;
    return WeightedSetSimilarity(pred.func, ranks.view(e1), ranks.view(e2),
                                 weights);
  }
  if (pred.func == SimFunc::kEditSim) {
    return EditSimilarity(attr.text[e1], attr.text[e2]);
  }
  DIME_CHECK(pred.func == SimFunc::kOntology);
  const auto it = attr.nodes.find(pred.ontology_index);
  DIME_CHECK(it != attr.nodes.end());
  const Ontology& tree = *pg.context.ontologies[pred.ontology_index].tree;
  return tree.Similarity(it->second[e1], it->second[e2]);
}

RulePlan BuildRulePlan(const PreparedGroup& pg,
                       const std::vector<Predicate>& predicates,
                       Direction dir) {
  RulePlan plan;
  plan.reserve(predicates.size());
  for (const Predicate& pred : predicates) {
    const PreparedAttr& attr = pg.attrs[pred.attr];
    PredicatePlan p;
    p.dir = dir;
    p.func = pred.func;
    p.threshold = pred.threshold;
    if (IsSetBased(pred.func)) {
      p.kind = PredicatePlan::Kind::kSet;
      p.ranks = pred.mode == TokenMode::kValueList ? &attr.value_ranks
                                                   : &attr.word_ranks;
    } else if (IsWeightedSetBased(pred.func)) {
      const bool values = pred.mode == TokenMode::kValueList;
      p.kind = PredicatePlan::Kind::kWeighted;
      p.ranks = values ? &attr.value_ranks : &attr.word_ranks;
      p.weights = values ? &attr.value_weights : &attr.word_weights;
      p.mass = (pred.func == SimFunc::kWeightedJaccard
                    ? (values ? attr.value_mass : attr.word_mass)
                    : (values ? attr.value_sqnorm : attr.word_sqnorm))
                   .data();
    } else if (pred.func == SimFunc::kEditSim) {
      p.kind = PredicatePlan::Kind::kEditSim;
      p.text = attr.text.data();
    } else {
      DIME_CHECK(pred.func == SimFunc::kOntology);
      const auto it = attr.nodes.find(pred.ontology_index);
      DIME_CHECK(it != attr.nodes.end());
      p.kind = PredicatePlan::Kind::kOntology;
      p.nodes = it->second.data();
      p.tree = pg.context.ontologies[pred.ontology_index].tree.get();
    }
    plan.push_back(p);
  }
  return plan;
}

bool PlanPredicateHolds(const PredicatePlan& p, int e1, int e2) {
  switch (p.kind) {
    case PredicatePlan::Kind::kSet:
      return p.dir == Direction::kGe
                 ? SetSimilarityAtLeast(p.func, p.ranks->view(e1),
                                        p.ranks->view(e2), p.threshold)
                 : SetSimilarityAtMost(p.func, p.ranks->view(e1),
                                       p.ranks->view(e2), p.threshold);
    case PredicatePlan::Kind::kWeighted:
      return p.dir == Direction::kGe
                 ? WeightedSimilarityAtLeast(p.func, p.ranks->view(e1),
                                             p.ranks->view(e2), *p.weights,
                                             p.mass[e1], p.mass[e2],
                                             p.threshold)
                 : WeightedSimilarityAtMost(p.func, p.ranks->view(e1),
                                            p.ranks->view(e2), *p.weights,
                                            p.mass[e1], p.mass[e2],
                                            p.threshold);
    case PredicatePlan::Kind::kEditSim:
      return p.dir == Direction::kGe
                 ? EditSimilarityAtLeast(p.text[e1], p.text[e2], p.threshold)
                 : EditSimilarityAtMost(p.text[e1], p.text[e2], p.threshold);
    case PredicatePlan::Kind::kOntology: {
      const double sim = p.tree->Similarity(p.nodes[e1], p.nodes[e2]);
      return p.dir == Direction::kGe ? sim >= p.threshold - kSimCompareEps
                                     : sim <= p.threshold + kSimCompareEps;
    }
  }
  return false;  // unreachable: all kinds handled above
}

double RuleVerificationCost(const RulePlan& plan, int e1, int e2) {
  double cost = 0.0;
  for (const PredicatePlan& p : plan) {
    switch (p.kind) {
      case PredicatePlan::Kind::kSet:
      case PredicatePlan::Kind::kWeighted:
        cost += static_cast<double>(p.ranks->size(e1) + p.ranks->size(e2));
        break;
      case PredicatePlan::Kind::kEditSim: {
        const size_t len1 = p.text[e1].size(), len2 = p.text[e2].size();
        const size_t band =
            MaxEditDistanceForSim(std::max(len1, len2), p.threshold);
        cost += static_cast<double>(std::max<size_t>(1, band) *
                                    std::min(len1, len2));
        break;
      }
      case PredicatePlan::Kind::kOntology: {
        const int n1 = p.nodes[e1], n2 = p.nodes[e2];
        const int d1 = n1 == kNoNode ? 1 : p.tree->Depth(n1);
        const int d2 = n2 == kNoNode ? 1 : p.tree->Depth(n2);
        cost += static_cast<double>(d1 + d2);
        break;
      }
    }
  }
  return std::max(cost, 1.0);
}

}  // namespace dime
