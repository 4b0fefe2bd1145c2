#ifndef DIME_ONTOLOGY_ONTOLOGY_H_
#define DIME_ONTOLOGY_ONTOLOGY_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

/// \file ontology.h
/// Tree-structured ontologies for the ontology-based similarity function
/// (Section II). Depth of the root is 1 and the similarity of two mapped
/// nodes n, n' is 2|LCA(n, n')| / (|n| + |n'|) where |n| is the depth.
///
/// Entities are mapped to nodes either by exact name lookup (e.g. a Venue
/// string is a leaf of the Google-Scholar-Metrics-style tree of Fig. 4) or
/// by keyword voting (e.g. a Title or Description maps to the node whose
/// registered keywords it mentions most often); see MapMode in
/// core/preprocess.h.

namespace dime {

/// Sentinel id for "no node".
inline constexpr int kNoNode = -1;

class Ontology {
 public:
  Ontology() = default;

  /// Adds the root node. Must be called exactly once, before AddNode.
  /// Returns the root's id (always 0).
  int AddRoot(std::string_view name);

  /// Adds a child of `parent` (which must already exist). Node names are
  /// case-insensitive and must be unique within the tree. Returns the new
  /// node's id.
  int AddNode(std::string_view name, int parent);

  /// Registers `keyword` (lower-cased) as voting for `node` in keyword
  /// mapping. A keyword may vote for only one node; later registrations of
  /// the same keyword are ignored.
  void AddKeyword(std::string_view keyword, int node);

  /// Exact (case-insensitive) name lookup. Returns kNoNode if absent.
  /// Lower-cases into a per-thread buffer, so a probe allocates nothing
  /// once the buffer has grown to the longest name probed.
  int FindByName(std::string_view name) const;

  /// Maps tokenized text to the node with the most keyword votes. Votes for
  /// a node are counted per occurrence. Returns kNoNode when no token is a
  /// registered keyword. Ties are broken toward the deeper node, then the
  /// smaller id (deterministic). Tokens are probed like FindByName's names.
  int MapByKeywords(const std::vector<std::string>& tokens) const;

  int NumNodes() const { return static_cast<int>(parent_.size()); }
  int Parent(int node) const { return parent_[node]; }
  /// Depth with root = 1 (the paper's convention).
  int Depth(int node) const { return depth_[node]; }
  const std::string& Name(int node) const { return name_[node]; }
  int MaxDepth() const { return max_depth_; }

  /// Lowest common ancestor of two nodes.
  int Lca(int a, int b) const;

  /// Ontology similarity 2|LCA| / (|a| + |b|). Returns 0 if either node is
  /// kNoNode.
  double Similarity(int a, int b) const;

  /// The ancestor of `node` at depth `depth` (<= Depth(node)); the node
  /// itself if depth == Depth(node).
  int AncestorAtDepth(int node, int depth) const;

  /// The signature depth tau_n = ceil(theta * |n| / (2 - theta)) from
  /// Section IV-B, clamped to [1, depth].
  static int TauDepth(int depth, double theta);

  /// Serializes the tree to a line-based text format:
  ///   root<TAB><root name>
  ///   node<TAB><parent name><TAB><node name>     (pre-order)
  ///   keyword<TAB><word><TAB><node name>
  std::string ToText() const;

  /// Parses ToText() output. Malformed input is PARSE_ERROR naming the
  /// line (out is left in an unspecified state).
  static Status FromText(std::string_view text, Ontology* out);

  /// File wrappers around the text codec. LoadFromFile is NOT_FOUND or
  /// IO_ERROR when the file cannot be read (ReadTextFile), PARSE_ERROR
  /// naming the path and line for bad text.
  bool SaveToFile(const std::string& path) const;
  static Status LoadFromFile(const std::string& path, Ontology* out);

 private:
  /// Lets the lower-cased maps be probed by string_view (no key copy).
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using LowerMap =
      std::unordered_map<std::string, int, StringHash, std::equal_to<>>;

  /// The value of the lower-cased `key` in `map`, or kNoNode.
  static int FindLowered(const LowerMap& map, std::string_view key);

  std::vector<int> parent_;
  std::vector<int> depth_;
  std::vector<std::string> name_;
  LowerMap by_name_;
  LowerMap keyword_to_node_;
  int max_depth_ = 0;
};

}  // namespace dime

#endif  // DIME_ONTOLOGY_ONTOLOGY_H_
