#include "src/ontology/ontology.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/csv.h"
#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace dime {

int Ontology::AddRoot(std::string_view name) {
  DIME_CHECK(parent_.empty()) << "root already added";
  parent_.push_back(kNoNode);
  depth_.push_back(1);
  name_.emplace_back(name);
  by_name_[ToLower(name)] = 0;
  max_depth_ = 1;
  return 0;
}

int Ontology::AddNode(std::string_view name, int parent) {
  DIME_CHECK(!parent_.empty()) << "add a root first";
  DIME_CHECK_GE(parent, 0);
  DIME_CHECK_LT(parent, NumNodes());
  std::string key = ToLower(name);
  DIME_CHECK(by_name_.find(key) == by_name_.end())
      << "duplicate node name: " << name;
  int id = NumNodes();
  parent_.push_back(parent);
  depth_.push_back(depth_[parent] + 1);
  name_.emplace_back(name);
  by_name_[key] = id;
  max_depth_ = std::max(max_depth_, depth_[id]);
  return id;
}

void Ontology::AddKeyword(std::string_view keyword, int node) {
  DIME_CHECK_GE(node, 0);
  DIME_CHECK_LT(node, NumNodes());
  keyword_to_node_.emplace(ToLower(keyword), node);
}

int Ontology::FindLowered(const LowerMap& map, std::string_view key) {
  thread_local std::string lowered;
  ToLowerInto(key, &lowered);
  auto it = map.find(std::string_view(lowered));
  return it == map.end() ? kNoNode : it->second;
}

int Ontology::FindByName(std::string_view name) const {
  return FindLowered(by_name_, name);
}

int Ontology::MapByKeywords(const std::vector<std::string>& tokens) const {
  std::unordered_map<int, int> votes;
  for (const std::string& t : tokens) {
    const int node = FindLowered(keyword_to_node_, t);
    if (node != kNoNode) ++votes[node];
  }
  int best = kNoNode;
  int best_votes = 0;
  for (const auto& [node, count] : votes) {
    bool better = count > best_votes;
    if (count == best_votes && best != kNoNode) {
      if (depth_[node] != depth_[best]) {
        better = depth_[node] > depth_[best];
      } else {
        better = node < best;
      }
    }
    if (best == kNoNode || better) {
      best = node;
      best_votes = count;
    }
  }
  return best;
}

int Ontology::Lca(int a, int b) const {
  DIME_CHECK_GE(a, 0);
  DIME_CHECK_GE(b, 0);
  while (a != b) {
    if (depth_[a] >= depth_[b]) {
      a = parent_[a];
    } else {
      b = parent_[b];
    }
  }
  return a;
}

double Ontology::Similarity(int a, int b) const {
  if (a == kNoNode || b == kNoNode) return 0.0;
  int lca = Lca(a, b);
  return 2.0 * static_cast<double>(depth_[lca]) /
         static_cast<double>(depth_[a] + depth_[b]);
}

int Ontology::AncestorAtDepth(int node, int depth) const {
  DIME_CHECK_GE(depth, 1);
  DIME_CHECK_LE(depth, depth_[node]);
  while (depth_[node] > depth) node = parent_[node];
  return node;
}

std::string Ontology::ToText() const {
  std::string out;
  if (parent_.empty()) return out;
  out += "root\t" + name_[0] + "\n";
  // Nodes were added parent-first, so id order is a valid topological
  // order for reconstruction.
  for (int n = 1; n < NumNodes(); ++n) {
    out += "node\t" + name_[parent_[n]] + "\t" + name_[n] + "\n";
  }
  // Deterministic keyword order: sort by (node, word).
  std::vector<std::pair<int, std::string>> keywords;
  keywords.reserve(keyword_to_node_.size());
  for (const auto& [word, node] : keyword_to_node_) {
    keywords.emplace_back(node, word);
  }
  std::sort(keywords.begin(), keywords.end());
  for (const auto& [node, word] : keywords) {
    out += "keyword\t" + word + "\t" + name_[node] + "\n";
  }
  return out;
}

Status Ontology::FromText(std::string_view text, Ontology* out) {
  *out = Ontology();
  size_t line_number = 0;
  auto fail = [&line_number](const std::string& reason) {
    return ParseError("line " + std::to_string(line_number) + ": " + reason);
  };
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    std::vector<std::string> fields = Split(std::string(line), '\t');
    if (fields[0] == "root") {
      if (fields.size() != 2) return fail("expected root<TAB>name");
      if (out->NumNodes() != 0) return fail("a second root");
      out->AddRoot(fields[1]);
    } else if (fields[0] == "node") {
      if (fields.size() != 3) return fail("expected node<TAB>parent<TAB>name");
      int parent = out->FindByName(fields[1]);
      if (parent == kNoNode) return fail("unknown parent '" + fields[1] + "'");
      if (out->FindByName(fields[2]) != kNoNode) {
        return fail("duplicate node '" + fields[2] + "'");
      }
      out->AddNode(fields[2], parent);
    } else if (fields[0] == "keyword") {
      if (fields.size() != 3) return fail("expected keyword<TAB>word<TAB>node");
      int node = out->FindByName(fields[2]);
      if (node == kNoNode) return fail("unknown node '" + fields[2] + "'");
      out->AddKeyword(fields[1], node);
    } else {
      return fail("expected root, node or keyword");
    }
  }
  if (out->NumNodes() == 0) return ParseError("no root node");
  return OkStatus();
}

Status Ontology::SaveToFile(const std::string& path) const {
  return WriteTextFile(path, ToText());
}

Status Ontology::LoadFromFile(const std::string& path, Ontology* out) {
  StatusOr<std::string> text = ReadTextFile(path);
  if (!text.ok()) return text.status();
  Status parsed = FromText(*text, out);
  if (!parsed.ok()) return ParseError(path + ": " + parsed.message());
  return OkStatus();
}

int Ontology::TauDepth(int depth, double theta) {
  double tau = std::ceil(theta * static_cast<double>(depth) / (2.0 - theta) -
                         1e-9);
  int t = static_cast<int>(tau);
  return std::clamp(t, 1, depth);
}

}  // namespace dime
