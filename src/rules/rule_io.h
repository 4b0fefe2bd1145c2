#ifndef DIME_RULES_RULE_IO_H_
#define DIME_RULES_RULE_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/rules/rule.h"

/// \file rule_io.h
/// Rule-set files: a line-based text format so learned or hand-written
/// rule sets can be stored next to the data and fed to dime_cli.
///
///   # comment / blank lines ignored
///   positive: overlap(Authors) >= 2
///   positive: overlap(Authors) >= 1 ^ ontology(Venue) >= 0.75
///   negative: overlap(Authors) <= 0
///
/// Negative rules keep file order — it is the scrollbar order.

namespace dime {

/// Serializes a rule set.
std::string RuleSetToText(const Schema& schema,
                          const std::vector<PositiveRule>& positive,
                          const std::vector<NegativeRule>& negative);

/// Parses RuleSetToText output. On failure returns false and, if
/// `error` is non-null, stores a human-readable reason; outputs are left
/// in an unspecified state.
bool RuleSetFromText(std::string_view text, const Schema& schema,
                     std::vector<PositiveRule>* positive,
                     std::vector<NegativeRule>* negative,
                     std::string* error = nullptr);

/// Writes RuleSetToText output to `path` with WriteTextFile's codes:
/// NOT_FOUND when the file cannot be created, IO_ERROR when the write
/// fails.
Status SaveRuleSet(const std::string& path, const Schema& schema,
                   const std::vector<PositiveRule>& positive,
                   const std::vector<NegativeRule>& negative);
/// Reads and parses the rule file at `path` against `schema`: NOT_FOUND
/// or IO_ERROR when it cannot be read (ReadTextFile), PARSE_ERROR naming
/// the path and line for bad text.
Status LoadRuleSet(const std::string& path, const Schema& schema,
                   std::vector<PositiveRule>* positive,
                   std::vector<NegativeRule>* negative);

}  // namespace dime

#endif  // DIME_RULES_RULE_IO_H_
