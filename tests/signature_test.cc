// Property tests for signature generation (Section IV-B): completeness of
// the filters that DIME+ relies on for correctness.

#include "src/core/signature.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/common/random.h"
#include "src/datagen/names.h"
#include "src/ontology/builtin.h"

namespace dime {
namespace {

bool Intersects(const std::vector<uint64_t>& a,
                const std::vector<uint64_t>& b) {
  for (uint64_t x : a) {
    if (std::find(b.begin(), b.end(), x) != b.end()) return true;
  }
  return false;
}

/// A random group exercising set, character and ontology predicates.
Group RandomGroup(uint64_t seed, size_t n) {
  Random rng(seed);
  const auto& areas = ResearchAreas();
  Group g;
  g.name = "random";
  g.schema = Schema({"Title", "Authors", "Venue"});
  std::vector<std::string> pool = RandomDistinctNames(&rng, 12);
  for (size_t i = 0; i < n; ++i) {
    Entity e;
    e.id = "e" + std::to_string(i);
    if (i > 0 && rng.Bernoulli(0.35)) {
      // Near-duplicate of the previous entity: guarantees pairs that
      // qualify under strict thresholds (including edit similarity).
      e.values = g.entities[i - 1].values;
      std::string& title = e.values[0][0];
      if (!title.empty()) title[rng.Uniform(title.size())] = 'x';
      if (rng.Bernoulli(0.5)) {
        e.values[1].push_back(pool[rng.Uniform(pool.size())]);
      }
      g.entities.push_back(std::move(e));
      continue;
    }
    const ResearchArea& area = areas[rng.Uniform(areas.size())];
    std::string title;
    for (int w = 0; w < 4; ++w) {
      if (w > 0) title.push_back(' ');
      title += area.keywords[rng.Uniform(area.keywords.size())];
    }
    std::vector<std::string> authors;
    // Occasionally empty: normalized set similarity of two empty values is
    // 1, an edge the filters must survive.
    size_t na = rng.Bernoulli(0.08) ? 0 : 1 + rng.Uniform(4);
    for (size_t a = 0; a < na; ++a) {
      authors.push_back(pool[rng.Uniform(pool.size())]);
    }
    std::string venue = rng.Bernoulli(0.8)
                            ? area.venues[rng.Uniform(area.venues.size())]
                            : "Unknown Workshop";
    e.values = {{title}, authors, {venue}};
    g.entities.push_back(std::move(e));
  }
  g.truth.assign(n, 0);
  return g;
}

DimeContext MakeContext() {
  DimeContext ctx;
  ctx.ontologies.push_back(
      OntologyRef{VenueOntology(), MapMode::kExactName});
  return ctx;
}

struct RuleCase {
  std::string text;
  bool positive;
};

// The rule text names the case (its operator already gives the polarity).
// Without this gtest prints the raw object bytes, heap pointer included,
// so the discovered ctest names would change from build to build.
void PrintTo(const RuleCase& rule_case, std::ostream* os) {
  *os << rule_case.text;
}

class SignatureCompletenessTest : public ::testing::TestWithParam<RuleCase> {};

/// Positive rules: a satisfying pair must share a rule signature.
/// Negative rules: a pair sharing no signature must satisfy the rule.
TEST_P(SignatureCompletenessTest, FilterIsComplete) {
  const RuleCase& rule_case = GetParam();
  DimeContext ctx = MakeContext();
  int checked = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Group g = RandomGroup(seed, 40);
    std::vector<PositiveRule> pos;
    std::vector<NegativeRule> neg;
    std::vector<Predicate>* predicates = nullptr;
    Direction dir;
    if (rule_case.positive) {
      pos.resize(1);
      ASSERT_TRUE(ParsePositiveRule(rule_case.text, g.schema, &pos[0]));
      predicates = &pos[0].predicates;
      dir = Direction::kGe;
    } else {
      neg.resize(1);
      ASSERT_TRUE(ParseNegativeRule(rule_case.text, g.schema, &neg[0]));
      predicates = &neg[0].predicates;
      dir = Direction::kLe;
    }
    PreparedGroup pg = PrepareGroup(g, pos, neg, ctx);
    SignatureGenerator gen(pg, *predicates, dir, /*rule_tag=*/1);
    const RulePlan plan = BuildRulePlan(pg, *predicates, dir);

    std::vector<std::vector<uint64_t>> sigs(g.size());
    for (size_t e = 0; e < g.size(); ++e) {
      sigs[e] = rule_case.positive
                    ? gen.PositiveRuleSignatures(static_cast<int>(e))
                    : gen.NegativeRuleSignatures(static_cast<int>(e));
    }
    for (size_t i = 0; i < g.size(); ++i) {
      for (size_t j = i + 1; j < g.size(); ++j) {
        const bool holds =
            EvalRulePlan(plan, static_cast<int>(i), static_cast<int>(j));
        if (rule_case.positive) {
          if (holds) {
            ++checked;
            EXPECT_TRUE(Intersects(sigs[i], sigs[j]))
                << "pair (" << i << "," << j << ") satisfies '"
                << rule_case.text << "' but shares no signature";
          }
        } else {
          if (!Intersects(sigs[i], sigs[j])) {
            ++checked;
            EXPECT_TRUE(holds)
                << "pair (" << i << "," << j
                << ") shares no signature but violates '" << rule_case.text
                << "'";
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 20) << "test vacuous for rule " << rule_case.text;
}

INSTANTIATE_TEST_SUITE_P(
    Rules, SignatureCompletenessTest,
    ::testing::Values(
        RuleCase{"overlap(Authors) >= 2", true},
        RuleCase{"overlap(Authors) >= 1", true},
        RuleCase{"jaccard(Authors) >= 0.5", true},
        RuleCase{"wjaccard(Authors) >= 0.5", true},
        RuleCase{"wcosine(Title:words) >= 0.6", true},
        RuleCase{"dice(Title:words) >= 0.5", true},
        RuleCase{"cosine(Title:words) >= 0.6", true},
        RuleCase{"ontology(Venue) >= 0.75", true},
        RuleCase{"editsim(Title) >= 0.7", true},
        RuleCase{"overlap(Authors) >= 1 ^ ontology(Venue) >= 0.75", true},
        RuleCase{"jaccard(Title:words) >= 0.4 ^ overlap(Authors) >= 1", true},
        RuleCase{"overlap(Authors) <= 0", false},
        RuleCase{"overlap(Authors) <= 1", false},
        RuleCase{"jaccard(Authors) <= 0.3", false},
        RuleCase{"wjaccard(Authors) <= 0.4", false},
        RuleCase{"wcosine(Title:words) <= 0.5", false},
        RuleCase{"ontology(Venue) <= 0.25", false},
        RuleCase{"editsim(Title) <= 0.85", false},
        RuleCase{"overlap(Authors) <= 1 ^ ontology(Venue) <= 0.25", false},
        RuleCase{"overlap(Authors) <= 0 ^ jaccard(Title:words) <= 0.2",
                 false}));

TEST(SignatureGeneratorTest, UnsatisfiablePredicateYieldsNoSignatures) {
  DimeContext ctx = MakeContext();
  Group g = RandomGroup(5, 10);
  std::vector<PositiveRule> pos(1);
  ASSERT_TRUE(
      ParsePositiveRule("overlap(Authors) >= 50", g.schema, &pos[0]));
  PreparedGroup pg = PrepareGroup(g, pos, {}, ctx);
  SignatureGenerator gen(pg, pos[0].predicates, Direction::kGe, 1);
  for (size_t e = 0; e < g.size(); ++e) {
    EXPECT_TRUE(gen.PositiveRuleSignatures(static_cast<int>(e)).empty());
  }
}

TEST(SignatureGeneratorTest, AnchorFallbackOnExplosiveCrossProduct) {
  DimeContext ctx = MakeContext();
  Group g = RandomGroup(6, 20);
  std::vector<PositiveRule> pos(1);
  // Four low-threshold predicates over the 4-word titles: each indexes
  // about every title word, so the tuple cross-product (~4^4) exceeds
  // kMaxTupleSignatures.
  ASSERT_TRUE(ParsePositiveRule(
      "jaccard(Title:words) >= 0.1 ^ dice(Title:words) >= 0.1 ^ "
      "cosine(Title:words) >= 0.1 ^ overlap(Title:words) >= 1",
      g.schema, &pos[0]));
  PreparedGroup pg = PrepareGroup(g, pos, {}, ctx);
  SignatureGenerator gen(pg, pos[0].predicates, Direction::kGe, 1);
  EXPECT_TRUE(gen.anchor_only());
  const RulePlan plan =
      BuildRulePlan(pg, pos[0].predicates, Direction::kGe);
  // Completeness still holds through the anchor predicate.
  std::vector<std::vector<uint64_t>> sigs(g.size());
  for (size_t e = 0; e < g.size(); ++e) {
    sigs[e] = gen.PositiveRuleSignatures(static_cast<int>(e));
  }
  for (size_t i = 0; i < g.size(); ++i) {
    for (size_t j = i + 1; j < g.size(); ++j) {
      if (EvalRulePlan(plan, static_cast<int>(i), static_cast<int>(j))) {
        EXPECT_TRUE(Intersects(sigs[i], sigs[j]));
      }
    }
  }
}

TEST(SignatureGeneratorTest, MixSignatureSpreadsBits) {
  // Not a cryptographic claim — just that nearby inputs do not collide.
  std::set<uint64_t> seen;
  for (uint64_t a = 0; a < 50; ++a) {
    for (uint64_t b = 0; b < 50; ++b) {
      seen.insert(MixSignature(a, b));
    }
  }
  EXPECT_EQ(seen.size(), 2500u);
}

}  // namespace
}  // namespace dime
