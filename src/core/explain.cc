#include "src/core/explain.h"

#include <algorithm>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace dime {
namespace {

/// Finds a member of `partition` satisfying `rule` against every pivot
/// entity (there is at least one when the partition is flagged).
int FindWitness(const PreparedGroup& pg, const NegativeRule& rule,
                const std::vector<int>& partition,
                const std::vector<int>& pivot) {
  const RulePlan plan = BuildRulePlan(pg, rule.predicates, Direction::kLe);
  for (int e : partition) {
    bool all = true;
    for (int e_star : pivot) {
      if (!EvalRulePlan(plan, e, e_star)) {
        all = false;
        break;
      }
    }
    if (all) return e;
  }
  return -1;
}

}  // namespace

Explanation ExplainFlagged(const PreparedGroup& pg,
                           const std::vector<NegativeRule>& negative,
                           const DimeResult& result, int entity) {
  Explanation out;
  out.partition = result.PartitionOf(entity);
  DIME_CHECK_GE(out.partition, 0) << "entity not in the result's group";
  out.partition_size = result.partitions[out.partition].size();

  const Schema& schema = pg.group->schema;
  std::ostringstream text;
  const std::string& id = pg.group->entities[entity].id;

  if (out.partition == result.pivot) {
    text << "'" << id << "' is in the pivot partition (" << out.partition_size
         << " entities assumed correctly categorized); not suggested.";
    out.text = text.str();
    return out;
  }
  DIME_CHECK_LT(static_cast<size_t>(out.partition),
                result.first_flagging_rule.size());
  out.rule = result.first_flagging_rule[out.partition];
  if (out.rule < 0) {
    text << "'" << id << "' sits outside the pivot (partition of "
         << out.partition_size << "), but every member still resembles some "
         << "pivot entity under every negative rule; not suggested.";
    out.text = text.str();
    return out;
  }

  out.flagged = true;
  const NegativeRule& rule = negative[out.rule];
  const std::vector<int>& pivot = result.PivotEntities();
  out.witness = FindWitness(pg, rule, result.partitions[out.partition], pivot);
  DIME_CHECK_GE(out.witness, 0) << "flagged partition must have a witness";

  for (const Predicate& p : rule.predicates) {
    double max_sim = 0.0;
    for (int e_star : pivot) {
      max_sim = std::max(max_sim, PredicateSimilarity(pg, p, out.witness,
                                                      e_star));
    }
    out.max_similarity_to_pivot.push_back(max_sim);
  }

  text << "'" << id << "' is suggested: it shares a partition ("
       << out.partition_size << " entities) with '"
       << pg.group->entities[out.witness].id
       << "', which negative rule " << out.rule + 1 << " ["
       << rule.ToString(schema)
       << "] finds dissimilar from every pivot entity";
  text << " (";
  for (size_t i = 0; i < rule.predicates.size(); ++i) {
    if (i > 0) text << ", ";
    text << "max " << SimFuncName(rule.predicates[i].func) << "("
         << schema.AttributeName(rule.predicates[i].attr)
         << ") = " << FormatDouble(out.max_similarity_to_pivot[i], 2)
         << " <= " << FormatDouble(rule.predicates[i].threshold, 2);
  }
  text << ").";
  out.text = text.str();
  return out;
}

}  // namespace dime
