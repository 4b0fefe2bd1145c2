#ifndef DIME_INDEX_UNION_FIND_H_
#define DIME_INDEX_UNION_FIND_H_

#include <cstddef>
#include <numeric>
#include <vector>

/// \file union_find.h
/// Disjoint-set forest with union by size and path compression. This is the
/// "partition ID" bookkeeping of Section IV-C: when a candidate pair is
/// verified to satisfy a positive rule its two components are merged, and
/// candidates that already share a component are skipped (the transitivity
/// short-circuit).

namespace dime {

class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  /// Representative of `x`'s component (with path compression).
  int Find(int x) {
    int root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) {
      int next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    return root;
  }

  /// True iff x and y are already in the same component.
  bool Connected(int x, int y) { return Find(x) == Find(y); }

  /// Merges the components of x and y. Returns false if they were already
  /// connected.
  bool Union(int x, int y) {
    int rx = Find(x), ry = Find(y);
    if (rx == ry) return false;
    if (size_[rx] < size_[ry]) std::swap(rx, ry);
    parent_[ry] = rx;
    size_[rx] += size_[ry];
    return true;
  }

  /// Size of the component containing `x`.
  size_t ComponentSize(int x) { return size_[Find(x)]; }

  size_t size() const { return parent_.size(); }

  /// Materializes the components as entity-index lists. Each component's
  /// members are ascending; components are ordered by their smallest
  /// member (deterministic).
  std::vector<std::vector<int>> Components();

 private:
  std::vector<int> parent_;
  std::vector<size_t> size_;
};

inline std::vector<std::vector<int>> UnionFind::Components() {
  std::vector<int> root_to_slot(parent_.size(), -1);
  std::vector<std::vector<int>> components;
  for (size_t i = 0; i < parent_.size(); ++i) {
    int root = Find(static_cast<int>(i));
    if (root_to_slot[root] < 0) {
      root_to_slot[root] = static_cast<int>(components.size());
      components.emplace_back();
    }
    components[root_to_slot[root]].push_back(static_cast<int>(i));
  }
  return components;
}

}  // namespace dime

#endif  // DIME_INDEX_UNION_FIND_H_
