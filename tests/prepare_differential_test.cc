// PrepareGroup against the per-entity algorithm it replaced: interning
// one document at a time into one dictionary, then ranking, sorting and
// weighing each entity on its own. The groups straddle the chunk
// boundaries, so both the caller-thread path (one chunk) and the pooled
// path (chunk dictionaries merged in chunk order) must reproduce every
// rank column, weight, mass, text and mapped node exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/core/preprocess.h"
#include "src/ontology/builtin.h"
#include "src/sim/weighted_similarity.h"
#include "src/text/token_dictionary.h"
#include "src/text/tokenizer.h"

namespace dime {
namespace {

constexpr size_t kChunk = kPrepareChunkEntities;

// ---------------------------------------------------------------------------
// The reference: one dictionary, one document at a time.

struct RefColumn {
  TokenDictionary dict;
  std::vector<std::vector<uint32_t>> ranks;
  std::vector<double> weights, mass, sqnorm;
};

struct RefAttr {
  std::optional<RefColumn> values, words, qgrams;
  std::vector<std::string> text;
  std::vector<std::pair<int, std::vector<int>>> nodes;
};

void FinishColumn(const std::vector<std::vector<TokenId>>& ids, bool weighted,
                  RefColumn* col) {
  col->dict.BuildGlobalOrder();
  for (const std::vector<TokenId>& doc : ids) {
    std::vector<uint32_t> ranks;
    for (TokenId id : doc) ranks.push_back(col->dict.GlobalRank(id));
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    col->ranks.push_back(std::move(ranks));
  }
  if (!weighted) return;
  col->weights =
      IdfWeightsByRank(col->dict.DocumentFrequencyByRank(), ids.size());
  for (const std::vector<uint32_t>& r : col->ranks) {
    col->mass.push_back(TotalWeight(r, col->weights));
    col->sqnorm.push_back(SquaredWeightNorm(r, col->weights));
  }
}

std::vector<RefAttr> ReferencePrepare(const Group& group,
                                      const std::vector<Predicate>& preds,
                                      const DimeContext& context) {
  const std::vector<AttrRequirements> needs =
      ComputeAttrRequirements(group.schema.size(), preds);
  std::vector<RefAttr> attrs(group.schema.size());
  for (size_t a = 0; a < attrs.size(); ++a) {
    const int ai = static_cast<int>(a);
    RefAttr& attr = attrs[a];
    if (needs[a].value_list) {
      attr.values.emplace();
      std::vector<std::vector<TokenId>> ids;
      for (const Entity& e : group.entities) {
        std::vector<std::string> tokens;
        for (const std::string& v : e.value(ai)) {
          tokens.push_back(ToLower(std::string(Trim(v))));
        }
        ids.push_back(attr.values->dict.InternDocument(tokens));
      }
      FinishColumn(ids, /*weighted=*/true, &*attr.values);
    }
    if (needs[a].words) {
      attr.words.emplace();
      std::vector<std::vector<TokenId>> ids;
      for (const Entity& e : group.entities) {
        ids.push_back(attr.words->dict.InternDocument(
            WordTokenizeUnique(JoinAttributeText(e.value(ai)))));
      }
      FinishColumn(ids, /*weighted=*/true, &*attr.words);
    }
    if (needs[a].text) {
      attr.qgrams.emplace();
      std::vector<std::vector<TokenId>> ids;
      for (const Entity& e : group.entities) {
        attr.text.push_back(JoinAttributeText(e.value(ai)));
        ids.push_back(attr.qgrams->dict.InternDocument(
            QGrams(attr.text.back(), kQGramLength)));
      }
      FinishColumn(ids, /*weighted=*/false, &*attr.qgrams);
    }
    for (int oi : needs[a].ontology_indexes) {
      const OntologyRef& ref = context.ontologies[oi];
      std::vector<int> nodes;
      for (const Entity& e : group.entities) {
        nodes.push_back(MapAttributeToNode(*ref.tree, ref.mode, e.value(ai)));
      }
      attr.nodes.emplace_back(oi, std::move(nodes));
    }
  }
  return attrs;
}

// ---------------------------------------------------------------------------
// Column-by-column comparison.

void ExpectSameColumn(const RankColumn& got,
                      const std::vector<double>* got_weights,
                      const std::vector<double>* got_mass,
                      const std::vector<double>* got_sqnorm,
                      const RefColumn& want, const std::string& where) {
  ASSERT_EQ(got.num_entities(), want.ranks.size()) << where;
  size_t total = 0;
  for (size_t e = 0; e < want.ranks.size(); ++e) {
    const RankSpan span = got.view(e);
    ASSERT_EQ(std::vector<uint32_t>(span.begin(), span.end()), want.ranks[e])
        << where << " entity " << e;
    total += want.ranks[e].size();
  }
  EXPECT_EQ(got.total_ranks(), total) << where;
  if (got_weights == nullptr) return;
  // Same inputs, same arithmetic: bit-identical, so compare exactly.
  EXPECT_EQ(*got_weights, want.weights) << where << " weights";
  EXPECT_EQ(*got_mass, want.mass) << where << " mass";
  EXPECT_EQ(*got_sqnorm, want.sqnorm) << where << " sqnorm";
}

void ExpectMatchesReference(const PreparedGroup& pg,
                            const std::vector<RefAttr>& want) {
  ASSERT_EQ(pg.attrs.size(), want.size());
  for (size_t a = 0; a < want.size(); ++a) {
    const PreparedAttr& got = pg.attrs[a];
    const RefAttr& ref = want[a];
    const std::string where = "attr " + std::to_string(a);
    ASSERT_EQ(got.has_value_list, ref.values.has_value()) << where;
    ASSERT_EQ(got.has_words, ref.words.has_value()) << where;
    ASSERT_EQ(got.has_text, ref.qgrams.has_value()) << where;
    if (ref.values) {
      ExpectSameColumn(got.value_ranks, &got.value_weights, &got.value_mass,
                       &got.value_sqnorm, *ref.values, where + " values");
    }
    if (ref.words) {
      ExpectSameColumn(got.word_ranks, &got.word_weights, &got.word_mass,
                       &got.word_sqnorm, *ref.words, where + " words");
    }
    if (ref.qgrams) {
      EXPECT_EQ(got.text, ref.text) << where << " text";
      ExpectSameColumn(got.qgram_ranks, nullptr, nullptr, nullptr,
                       *ref.qgrams, where + " q-grams");
    }
    ASSERT_EQ(got.nodes.size(), ref.nodes.size()) << where;
    for (const auto& [oi, nodes] : ref.nodes) {
      auto it = got.nodes.find(oi);
      ASSERT_NE(it, got.nodes.end()) << where << " ontology " << oi;
      EXPECT_EQ(it->second, nodes) << where << " ontology " << oi;
    }
  }
}

// ---------------------------------------------------------------------------
// A seeded Scholar-like group whose values exercise the tokenizers' edges:
// mixed case, punctuation, digits, padding whitespace, empty and blank
// elements, long tokens, repeats within one value, unknown venues.

struct Vocabulary {
  std::vector<std::string> words;     // title words, skewed by index
  std::vector<std::string> keywords;  // the venue ontology's keywords
  std::vector<std::string> venues;    // its node names
};

Vocabulary MakeVocabulary() {
  Vocabulary v;
  for (int i = 0; i < 4000; ++i) {
    std::string w;
    for (int x = i;; x /= 26) {
      w.push_back(static_cast<char>('a' + x % 26));
      if (x < 26) break;
    }
    v.words.push_back(w);
  }
  const Ontology& tree = *VenueOntology();
  for (int node = 1; node < tree.NumNodes(); ++node) {
    v.venues.push_back(tree.Name(node));
  }
  for (const std::string& line : Split(tree.ToText(), '\n')) {
    std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() == 3 && fields[0] == "keyword") {
      v.keywords.push_back(fields[1]);
    }
  }
  return v;
}

std::string Skewed(Random* rng, const std::vector<std::string>& pool) {
  // Index = uniform below a uniform bound: low indexes are far likelier,
  // so frequencies spread over many ranks.
  return pool[rng->Uniform(rng->Uniform(pool.size()) + 1)];
}

std::string MixCase(Random* rng, std::string s) {
  for (char& c : s) {
    if (rng->Bernoulli(0.2)) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  return s;
}

Group MakeGroup(size_t n, uint64_t seed) {
  static const Vocabulary& vocab = *new Vocabulary(MakeVocabulary());
  Random rng(seed);
  Group g;
  g.name = "differential";
  g.schema = Schema({"Title", "Authors", "Venue"});
  for (size_t i = 0; i < n; ++i) {
    Entity e;
    e.id = "e" + std::to_string(i);
    std::string title;
    const int words = static_cast<int>(rng.UniformInt(0, 9));
    for (int w = 0; w < words; ++w) {
      if (w > 0) title += rng.Bernoulli(0.1) ? " -- " : " ";
      if (rng.Bernoulli(0.1)) {
        title += Skewed(&rng, vocab.keywords);
      } else if (rng.Bernoulli(0.02)) {
        title += std::string(40 + rng.Uniform(20), 'q');  // a long token
      } else {
        title += MixCase(&rng, Skewed(&rng, vocab.words));
      }
      if (rng.Bernoulli(0.1)) title += rng.Bernoulli(0.5) ? ":" : "2015";
    }
    std::vector<std::string> authors;
    const int num_authors = static_cast<int>(rng.UniformInt(0, 4));
    for (int k = 0; k < num_authors; ++k) {
      if (rng.Bernoulli(0.05)) {
        authors.push_back(rng.Bernoulli(0.5) ? "" : "   ");
        continue;
      }
      std::string name = "Author " + Skewed(&rng, vocab.words);
      if (rng.Bernoulli(0.2)) name = "  " + MixCase(&rng, name) + " ";
      authors.push_back(name);
    }
    std::vector<std::string> venue;
    if (rng.Bernoulli(0.8)) {
      std::string name = Skewed(&rng, vocab.venues);
      if (rng.Bernoulli(0.3)) name += " " + std::to_string(2000 + i % 20);
      if (rng.Bernoulli(0.2)) name = ToLower(name);
      venue.push_back(name);
    } else if (rng.Bernoulli(0.5)) {
      venue.push_back("Workshop " + Skewed(&rng, vocab.words));
    }
    e.values = {{title}, std::move(authors), std::move(venue)};
    g.entities.push_back(std::move(e));
  }
  return g;
}

Predicate Pred(int attr, SimFunc func, TokenMode mode, double threshold,
               int ontology_index = 0) {
  Predicate p;
  p.attr = attr;
  p.func = func;
  p.mode = mode;
  p.threshold = threshold;
  p.ontology_index = ontology_index;
  return p;
}

DimeContext MakeContext() {
  DimeContext context;
  context.ontologies.push_back(
      OntologyRef{VenueOntology(), MapMode::kExactName});
  context.ontologies.push_back(
      OntologyRef{VenueOntology(), MapMode::kKeyword});
  return context;
}

/// Predicate lists, one per representation family, plus all at once.
std::vector<std::pair<std::string, std::vector<Predicate>>> RuleSets() {
  const TokenMode kValues = TokenMode::kValueList;
  const TokenMode kWords = TokenMode::kWords;
  std::vector<Predicate> values = {
      Pred(1, SimFunc::kOverlap, kValues, 1),
      Pred(1, SimFunc::kWeightedJaccard, kValues, 0.5),
      Pred(2, SimFunc::kJaccard, kValues, 0.5)};
  std::vector<Predicate> words = {
      Pred(0, SimFunc::kJaccard, kWords, 0.5),
      Pred(0, SimFunc::kWeightedCosine, kWords, 0.5),
      Pred(1, SimFunc::kOverlap, kWords, 1)};
  std::vector<Predicate> text = {Pred(0, SimFunc::kEditSim, kWords, 0.8),
                                 Pred(2, SimFunc::kEditSim, kWords, 0.8)};
  std::vector<Predicate> ontology = {
      Pred(2, SimFunc::kOntology, kValues, 0.5, /*ontology_index=*/0),
      Pred(0, SimFunc::kOntology, kWords, 0.5, /*ontology_index=*/1)};
  std::vector<Predicate> all;
  for (const auto* set : {&values, &words, &text, &ontology}) {
    all.insert(all.end(), set->begin(), set->end());
  }
  return {{"values", values},
          {"words", words},
          {"qgrams+text", text},
          {"ontology", ontology},
          {"all", all}};
}

class PrepareDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PrepareDifferentialTest, MatchesPerEntityReference) {
  const size_t n = GetParam();
  const Group group = MakeGroup(n, /*seed=*/1000 + n);
  const DimeContext context = MakeContext();
  for (const auto& [name, preds] : RuleSets()) {
    SCOPED_TRACE("rule set " + name + ", n = " + std::to_string(n));
    const PreparedGroup pg = PrepareGroupForPredicates(group, preds, context);
    ExpectMatchesReference(pg, ReferencePrepare(group, preds, context));
    if (name != "ontology") continue;
    // The generator must give both mapping modes something to find.
    auto mapped = [](const std::vector<int>& nodes) {
      return std::count_if(nodes.begin(), nodes.end(),
                           [](int node) { return node != kNoNode; });
    };
    EXPECT_GT(mapped(pg.attrs[2].nodes.at(0)), static_cast<long>(n / 2));
    EXPECT_GT(mapped(pg.attrs[0].nodes.at(1)), static_cast<long>(n / 10));
  }
}

// Just below, at and above the two-chunk threshold, and a ragged last
// chunk behind three full ones.
INSTANTIATE_TEST_SUITE_P(
    ChunkBoundaries, PrepareDifferentialTest,
    ::testing::Values(kChunk - 1, kChunk, kChunk + 1, 2 * kChunk,
                      3 * kChunk + 517),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return "n" + std::to_string(info.param);
    });

TEST(PrepareDifferentialThreadsTest, ThreadCountDoesNotChangeTheOutput) {
  // The chunk split depends on n alone: one executor or several, the
  // pooled path builds the same columns.
  const Group group = MakeGroup(2 * kChunk + 100, /*seed=*/7);
  const DimeContext context = MakeContext();
  const std::vector<Predicate> preds = RuleSets().back().second;
  const std::vector<RefAttr> want = ReferencePrepare(group, preds, context);
  const char* saved = std::getenv("DIME_THREADS");
  const std::string restore = saved == nullptr ? "" : saved;
  for (const char* threads : {"1", "2", "3"}) {
    SCOPED_TRACE(std::string("DIME_THREADS=") + threads);
    ASSERT_EQ(::setenv("DIME_THREADS", threads, /*overwrite=*/1), 0);
    ExpectMatchesReference(PrepareGroupForPredicates(group, preds, context),
                           want);
  }
  if (saved == nullptr) {
    ::unsetenv("DIME_THREADS");
  } else {
    ::setenv("DIME_THREADS", restore.c_str(), 1);
  }
}

TEST(PrepareDifferentialThreadsTest, PrepareGroupMatchesItsPredicateList) {
  // PrepareGroup gathers the rules' predicates; above one chunk it must
  // build what PrepareGroupForPredicates builds for the same list.
  const Group group = MakeGroup(kChunk + 1, /*seed=*/11);
  const DimeContext context = MakeContext();
  PositiveRule positive;
  positive.predicates = {
      Pred(1, SimFunc::kOverlap, TokenMode::kValueList, 2),
      Pred(0, SimFunc::kJaccard, TokenMode::kWords, 0.5)};
  NegativeRule negative;
  negative.predicates = {
      Pred(1, SimFunc::kOverlap, TokenMode::kValueList, 0),
      Pred(2, SimFunc::kOntology, TokenMode::kValueList, 0.25)};
  std::vector<Predicate> all = positive.predicates;
  all.insert(all.end(), negative.predicates.begin(),
             negative.predicates.end());
  ExpectMatchesReference(PrepareGroup(group, {positive}, {negative}, context),
                         ReferencePrepare(group, all, context));
}

}  // namespace
}  // namespace dime
