#include "src/rules/rule_io.h"

#include <fstream>

#include "src/common/csv.h"
#include "src/common/string_util.h"

namespace dime {

std::string RuleSetToText(const Schema& schema,
                          const std::vector<PositiveRule>& positive,
                          const std::vector<NegativeRule>& negative) {
  std::string out;
  out += "# DIME rule set (positive rules are a disjunction; negative\n";
  out += "# rules apply in file order — the scrollbar order)\n";
  for (const PositiveRule& rule : positive) {
    out += "positive: " + rule.ToString(schema) + "\n";
  }
  for (const NegativeRule& rule : negative) {
    out += "negative: " + rule.ToString(schema) + "\n";
  }
  return out;
}

bool RuleSetFromText(std::string_view text, const Schema& schema,
                     std::vector<PositiveRule>* positive,
                     std::vector<NegativeRule>* negative,
                     std::string* error) {
  positive->clear();
  negative->clear();
  size_t line_number = 0;
  size_t start = 0;
  auto fail = [&](const std::string& reason) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_number) + ": " + reason;
    }
    return false;
  };
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = Trim(text.substr(start, end - start));
    start = end + 1;
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    if (StartsWith(line, "positive:")) {
      PositiveRule rule;
      if (!ParsePositiveRule(line.substr(9), schema, &rule)) {
        return fail("bad positive rule '" + std::string(line.substr(9)) +
                    "'");
      }
      positive->push_back(std::move(rule));
    } else if (StartsWith(line, "negative:")) {
      NegativeRule rule;
      if (!ParseNegativeRule(line.substr(9), schema, &rule)) {
        return fail("bad negative rule '" + std::string(line.substr(9)) +
                    "'");
      }
      negative->push_back(std::move(rule));
    } else {
      return fail("expected 'positive:' or 'negative:'");
    }
  }
  return true;
}

bool SaveRuleSet(const std::string& path, const Schema& schema,
                 const std::vector<PositiveRule>& positive,
                 const std::vector<NegativeRule>& negative) {
  std::ofstream f(path);
  if (!f) return false;
  f << RuleSetToText(schema, positive, negative);
  return static_cast<bool>(f);
}

Status LoadRuleSet(const std::string& path, const Schema& schema,
                   std::vector<PositiveRule>* positive,
                   std::vector<NegativeRule>* negative) {
  StatusOr<std::string> text = ReadTextFile(path);
  if (!text.ok()) return text.status();
  std::string error;
  if (!RuleSetFromText(*text, schema, positive, negative, &error)) {
    return ParseError(path + ": " + error);
  }
  return OkStatus();
}

}  // namespace dime
