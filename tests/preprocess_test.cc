#include "src/core/preprocess.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/ontology/builtin.h"
#include "src/sim/edit_distance.h"

namespace dime {
namespace {

Group MakeGroup() {
  Group g;
  g.name = "pp";
  g.schema = Schema({"Title", "Authors", "Venue"});
  auto add = [&](const std::string& id, const std::string& title,
                 std::vector<std::string> authors, const std::string& venue) {
    Entity e;
    e.id = id;
    e.values = {{title}, std::move(authors), {venue}};
    g.entities.push_back(std::move(e));
  };
  add("e1", "data cleaning system", {"Nan Tang", "Xu Chu"}, "SIGMOD 2015");
  add("e2", "Data Cleaning and more data", {"nan tang", "Guoliang Li"},
      "VLDB 2013");
  add("e3", "query optimization study", {"Other Person"}, "Workshop XYZ");
  return g;
}

DimeContext MakeContext() {
  DimeContext ctx;
  ctx.ontologies.push_back(
      OntologyRef{VenueOntology(), MapMode::kExactName});
  ctx.ontologies.push_back(OntologyRef{VenueOntology(), MapMode::kKeyword});
  return ctx;
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

TEST(PreprocessTest, BuildsOnlyNeededRepresentations) {
  Group g = MakeGroup();
  std::vector<Predicate> preds{
      Pred(1, SimFunc::kOverlap, TokenMode::kValueList, 1.0)};
  PreparedGroup pg = PrepareGroupForPredicates(g, preds, MakeContext());
  EXPECT_TRUE(pg.attrs[1].has_value_list);
  EXPECT_FALSE(pg.attrs[0].has_words);
  EXPECT_FALSE(pg.attrs[0].has_text);
  EXPECT_TRUE(pg.attrs[0].nodes.empty());
}

TEST(PreprocessTest, RankVectorsAreStrictlyAscending) {
  Group g = MakeGroup();
  std::vector<Predicate> preds{
      Pred(1, SimFunc::kOverlap, TokenMode::kValueList, 1.0),
      Pred(0, SimFunc::kJaccard, TokenMode::kWords, 0.5)};
  PreparedGroup pg = PrepareGroupForPredicates(g, preds, MakeContext());
  for (size_t e = 0; e < pg.attrs[1].value_ranks.num_entities(); ++e) {
    RankSpan ranks = pg.attrs[1].value_ranks.view(e);
    for (size_t i = 1; i < ranks.size(); ++i) {
      EXPECT_LT(ranks[i - 1], ranks[i]);
    }
  }
  // e2's title has 5 word tokens but "data" appears twice: 4 distinct.
  EXPECT_EQ(pg.attrs[0].word_ranks.size(1), 4u);
}

TEST(PreprocessTest, AuthorsAreCaseInsensitive) {
  Group g = MakeGroup();
  std::vector<Predicate> preds{
      Pred(1, SimFunc::kOverlap, TokenMode::kValueList, 1.0)};
  PreparedGroup pg = PrepareGroupForPredicates(g, preds, MakeContext());
  // e1 "Nan Tang" vs e2 "nan tang" overlap.
  EXPECT_DOUBLE_EQ(PredicateSimilarity(pg, preds[0], 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(PredicateSimilarity(pg, preds[0], 0, 2), 0.0);
}

TEST(PreprocessTest, ExactNameOntologyMapping) {
  Group g = MakeGroup();
  std::vector<Predicate> preds{
      Pred(2, SimFunc::kOntology, TokenMode::kValueList, 0.75, 0)};
  PreparedGroup pg = PrepareGroupForPredicates(g, preds, MakeContext());
  const std::vector<int>& nodes = pg.attrs[2].nodes.at(0);
  const Ontology& tree = *VenueOntology();
  EXPECT_EQ(nodes[0], tree.FindByName("SIGMOD"));
  EXPECT_EQ(nodes[1], tree.FindByName("VLDB"));
  EXPECT_EQ(nodes[2], kNoNode);  // unmapped workshop
  // SIGMOD ~ VLDB: same subfield -> 0.75.
  EXPECT_DOUBLE_EQ(PredicateSimilarity(pg, preds[0], 0, 1), 0.75);
  // Unmapped partner -> 0.
  EXPECT_DOUBLE_EQ(PredicateSimilarity(pg, preds[0], 0, 2), 0.0);
}

TEST(PreprocessTest, KeywordOntologyMappingOnTitles) {
  Group g = MakeGroup();
  std::vector<Predicate> preds{
      Pred(0, SimFunc::kOntology, TokenMode::kWords, 0.7, 1)};
  PreparedGroup pg = PrepareGroupForPredicates(g, preds, MakeContext());
  const std::vector<int>& nodes = pg.attrs[0].nodes.at(1);
  const Ontology& tree = *VenueOntology();
  // "data cleaning system" votes for the Database subfield ("cleaning" is
  // a Database keyword); "query optimization" likewise.
  EXPECT_EQ(nodes[0], tree.FindByName("Database"));
  EXPECT_EQ(nodes[2], tree.FindByName("Database"));
  EXPECT_DOUBLE_EQ(PredicateSimilarity(pg, preds[0], 0, 2), 1.0);
}

TEST(PreprocessTest, FuzzyNameMappingHandlesTypos) {
  const Ontology& tree = *VenueOntology();
  // Exact hit still wins under fuzzy mode.
  EXPECT_EQ(MapAttributeToNode(tree, MapMode::kFuzzyName, {"SIGMOD 2015"}),
            tree.FindByName("SIGMOD"));
  // A misspelled venue maps to the closest node name (footnote 2 of the
  // paper: approximate matching for ontology mapping).
  EXPECT_EQ(MapAttributeToNode(tree, MapMode::kFuzzyName, {"SIGMD"}),
            tree.FindByName("SIGMOD"));
  EXPECT_EQ(
      MapAttributeToNode(tree, MapMode::kFuzzyName, {"RSC Advnces"}),
      tree.FindByName("RSC Advances"));
  // Exact mode leaves the typo unmapped.
  EXPECT_EQ(MapAttributeToNode(tree, MapMode::kExactName, {"SIGMD"}),
            kNoNode);
  // Garbage is not forced onto a node.
  EXPECT_EQ(MapAttributeToNode(tree, MapMode::kFuzzyName,
                               {"zzqqxx totally unrelated"}),
            kNoNode);
}

TEST(PreprocessTest, EditSimilarityPredicate) {
  Group g = MakeGroup();
  std::vector<Predicate> preds{
      Pred(0, SimFunc::kEditSim, TokenMode::kValueList, 0.5)};
  PreparedGroup pg = PrepareGroupForPredicates(g, preds, MakeContext());
  EXPECT_EQ(pg.attrs[0].text[0], "data cleaning system");
  EXPECT_EQ(pg.attrs[0].text[1], "data cleaning and more data");
  double sim = PredicateSimilarity(pg, preds[0], 0, 1);
  EXPECT_GT(sim, 0.4);
  EXPECT_LT(sim, 1.0);
  // Threshold-aware check agrees with the exact similarity.
  const RulePlan plan = BuildRulePlan(pg, preds, Direction::kGe);
  EXPECT_EQ(EvalRulePlan(plan, 0, 1), sim >= 0.5 - kSimCompareEps);
}

TEST(PreprocessTest, RuleEvaluation) {
  Group g = MakeGroup();
  std::vector<PositiveRule> pos(1);
  std::vector<NegativeRule> neg(1);
  ASSERT_TRUE(ParsePositiveRule(
      "overlap(Authors) >= 1 ^ ontology(Venue) >= 0.75", g.schema, &pos[0]));
  ASSERT_TRUE(ParseNegativeRule("overlap(Authors) <= 0", g.schema, &neg[0]));
  PreparedGroup pg = PrepareGroup(g, pos, neg, MakeContext());
  const RulePlan pos_plan =
      BuildRulePlan(pg, pos[0].predicates, Direction::kGe);
  const RulePlan neg_plan =
      BuildRulePlan(pg, neg[0].predicates, Direction::kLe);
  EXPECT_TRUE(EvalRulePlan(pos_plan, 0, 1));
  EXPECT_FALSE(EvalRulePlan(pos_plan, 0, 2));
  EXPECT_FALSE(EvalRulePlan(neg_plan, 0, 1));
  EXPECT_TRUE(EvalRulePlan(neg_plan, 0, 2));
}

/// Rule plans are the only threshold-aware evaluator, so every plan
/// decision must equal the exact reference
/// `pred.Compare(PredicateSimilarity(...), dir)`: for every function class
/// (set, weighted, edit similarity, ontology), both directions, every
/// ordered pair, and valid thresholds on and within a few epsilons of the
/// pairs' own similarity values (where an epsilon disagreement shows).
TEST(PreprocessTest, RulePlanMatchesExactSimilarity) {
  Group g = MakeGroup();
  auto add = [&](const std::string& id, const std::string& title,
                 std::vector<std::string> authors, const std::string& venue) {
    Entity e;
    e.id = id;
    e.values = {{title}, std::move(authors), {venue}};
    g.entities.push_back(std::move(e));
  };
  add("e4", "data cleaning system", {"Xu Chu", "Nan Tang", "Guoliang Li"},
      "PVLDB");
  add("e5", "", {}, "SIGMOD");
  add("e6", "query study of data", {"Other Person", "Xu Chu"}, "ICDE 2016");

  std::vector<Predicate> preds;
  for (SimFunc f : {SimFunc::kOverlap, SimFunc::kJaccard, SimFunc::kDice,
                    SimFunc::kCosine, SimFunc::kWeightedJaccard,
                    SimFunc::kWeightedCosine}) {
    preds.push_back(Pred(1, f, TokenMode::kValueList, 0.0));
    preds.push_back(Pred(0, f, TokenMode::kWords, 0.0));
  }
  preds.push_back(Pred(0, SimFunc::kEditSim, TokenMode::kValueList, 0.0));
  preds.push_back(Pred(2, SimFunc::kEditSim, TokenMode::kValueList, 0.0));
  preds.push_back(Pred(2, SimFunc::kOntology, TokenMode::kValueList, 0.0, 0));
  preds.push_back(Pred(0, SimFunc::kOntology, TokenMode::kWords, 0.0, 1));
  PreparedGroup pg = PrepareGroupForPredicates(g, preds, MakeContext());
  const int n = static_cast<int>(pg.size());

  size_t checked = 0;
  for (Predicate pred : preds) {
    std::vector<double> thresholds = {0.0, 0.25, 0.5, 0.75, 1.0};
    const double max_threshold = IsNormalized(pred.func) ? 1.0 : 1e9;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        const double sim = PredicateSimilarity(pg, pred, i, j);
        for (double d : {0.0, -0.5, 0.5, -2.0, 2.0}) {
          const double t = sim + d * kSimCompareEps;
          if (t >= 0.0 && t <= max_threshold) thresholds.push_back(t);
        }
      }
    }
    for (double t : thresholds) {
      pred.threshold = t;
      for (Direction dir : {Direction::kGe, Direction::kLe}) {
        const RulePlan plan = BuildRulePlan(pg, {pred}, dir);
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < n; ++j) {
            ++checked;
            ASSERT_EQ(EvalRulePlan(plan, i, j),
                      pred.Compare(PredicateSimilarity(pg, pred, i, j), dir))
                << "func " << SimFuncName(pred.func) << " attr " << pred.attr
                << " threshold " << t << " dir " << static_cast<int>(dir)
                << " pair " << i << "," << j;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 50000u);

  // A conjunction holds iff each of its predicates does.
  std::vector<PositiveRule> pos(1);
  std::vector<NegativeRule> neg(1);
  ASSERT_TRUE(ParsePositiveRule(
      "jaccard(Title:words) >= 0.3 ^ editsim(Venue) >= 0.4 ^ "
      "ontology(Venue) >= 0.5",
      g.schema, &pos[0]));
  ASSERT_TRUE(ParseNegativeRule(
      "cosine(Title:words) <= 0.5 ^ ontology(Venue) <= 0.25 ^ "
      "overlap(Authors) <= 1",
      g.schema, &neg[0]));
  PreparedGroup rule_pg = PrepareGroup(g, pos, neg, MakeContext());
  const RulePlan pos_plan =
      BuildRulePlan(rule_pg, pos[0].predicates, Direction::kGe);
  const RulePlan neg_plan =
      BuildRulePlan(rule_pg, neg[0].predicates, Direction::kLe);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      bool pos_all = true, neg_all = true;
      for (const Predicate& p : pos[0].predicates) {
        pos_all = pos_all && p.Compare(PredicateSimilarity(rule_pg, p, i, j),
                                       Direction::kGe);
      }
      for (const Predicate& p : neg[0].predicates) {
        neg_all = neg_all && p.Compare(PredicateSimilarity(rule_pg, p, i, j),
                                       Direction::kLe);
      }
      EXPECT_EQ(EvalRulePlan(pos_plan, i, j), pos_all)
          << "pair " << i << "," << j;
      EXPECT_EQ(EvalRulePlan(neg_plan, i, j), neg_all)
          << "pair " << i << "," << j;
    }
  }
}

TEST(ValidateRulesTest, AcceptsTheScholarPresetShapes) {
  Group g = MakeGroup();
  std::vector<PositiveRule> pos(2);
  std::vector<NegativeRule> neg(2);
  ASSERT_TRUE(ParsePositiveRule("overlap(Authors) >= 2", g.schema, &pos[0]));
  ASSERT_TRUE(ParsePositiveRule(
      "overlap(Authors) >= 1 ^ ontology(Venue) >= 0.75", g.schema, &pos[1]));
  ASSERT_TRUE(ParseNegativeRule("overlap(Authors) <= 0", g.schema, &neg[0]));
  ASSERT_TRUE(ParseNegativeRule(
      "overlap(Authors) <= 1 ^ ontology(Venue) <= 0.25", g.schema, &neg[1]));
  EXPECT_EQ(ValidateRules(g.schema, pos, neg, MakeContext()), "");
}

TEST(ValidateRulesTest, RejectsBrokenRules) {
  Group g = MakeGroup();
  DimeContext ctx = MakeContext();

  // Empty rule.
  EXPECT_NE(ValidateRules(g.schema, {PositiveRule{}}, {}, ctx), "");

  // Attribute out of range.
  PositiveRule bad_attr;
  bad_attr.predicates = {Pred(7, SimFunc::kOverlap, TokenMode::kValueList, 2)};
  EXPECT_NE(ValidateRules(g.schema, {bad_attr}, {}, ctx), "");

  // Ontology index without a tree.
  PositiveRule bad_onto;
  bad_onto.predicates = {
      Pred(2, SimFunc::kOntology, TokenMode::kValueList, 0.75, 9)};
  EXPECT_NE(ValidateRules(g.schema, {bad_onto}, {}, ctx), "");

  // Normalized threshold outside [0, 1].
  PositiveRule bad_threshold;
  bad_threshold.predicates = {
      Pred(0, SimFunc::kJaccard, TokenMode::kWords, 1.5)};
  EXPECT_NE(ValidateRules(g.schema, {bad_threshold}, {}, ctx), "");

  // Vacuous positive predicate (overlap >= 0).
  PositiveRule vacuous;
  vacuous.predicates = {Pred(1, SimFunc::kOverlap, TokenMode::kValueList, 0)};
  EXPECT_NE(ValidateRules(g.schema, {vacuous}, {}, ctx), "");

  // The same threshold is fine on the negative side.
  NegativeRule negative_zero;
  negative_zero.predicates = {
      Pred(1, SimFunc::kOverlap, TokenMode::kValueList, 0)};
  EXPECT_EQ(ValidateRules(g.schema, {}, {negative_zero}, ctx), "");
}

TEST(PreprocessTest, VerificationCostIsPositiveAndTracksSizes) {
  Group g = MakeGroup();
  std::vector<Predicate> preds{
      Pred(1, SimFunc::kOverlap, TokenMode::kValueList, 1.0)};
  PreparedGroup pg = PrepareGroupForPredicates(g, preds, MakeContext());
  const RulePlan plan = BuildRulePlan(pg, preds, Direction::kLe);
  double c01 = RuleVerificationCost(plan, 0, 1);
  EXPECT_GE(c01, 1.0);
  // e3 has fewer authors than e1/e2, so pairs with it are cheaper.
  EXPECT_LT(RuleVerificationCost(plan, 0, 2), c01 + 1.0);

  // Each class prices from the plan's columns: rank-run sizes, the edit
  // band times the shorter text, and ontology depths (unmapped -> 1).
  std::vector<Predicate> mixed{
      Pred(1, SimFunc::kOverlap, TokenMode::kValueList, 1.0),
      Pred(0, SimFunc::kEditSim, TokenMode::kValueList, 0.5),
      Pred(2, SimFunc::kOntology, TokenMode::kValueList, 0.75, 0)};
  PreparedGroup mixed_pg = PrepareGroupForPredicates(g, mixed, MakeContext());
  const PreparedAttr& title = mixed_pg.attrs[0];
  const PreparedAttr& authors = mixed_pg.attrs[1];
  const Ontology& tree = *VenueOntology();
  const std::vector<int>& nodes = mixed_pg.attrs[2].nodes.at(0);
  for (int e2 : {1, 2}) {
    const size_t len1 = title.text[0].size(), len2 = title.text[e2].size();
    const double expected =
        static_cast<double>(authors.value_ranks.size(0) +
                            authors.value_ranks.size(e2)) +
        static_cast<double>(
            std::max<size_t>(1, MaxEditDistanceForSim(std::max(len1, len2),
                                                      0.5)) *
            std::min(len1, len2)) +
        static_cast<double>(tree.Depth(nodes[0]) +
                            (nodes[e2] == kNoNode ? 1 : tree.Depth(nodes[e2])));
    EXPECT_EQ(RuleVerificationCost(
                  BuildRulePlan(mixed_pg, mixed, Direction::kGe), 0, e2),
              expected)
        << "pair 0," << e2;
  }
}

}  // namespace
}  // namespace dime
