#ifndef DIME_EXEC_INVERTED_LISTS_H_
#define DIME_EXEC_INVERTED_LISTS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/exec/pool.h"

/// \file inverted_lists.h
/// One positive rule's signature -> entity inverted lists (Section IV-A),
/// built on the pool for step 1 of DIME+. Every pair of entities on one
/// list is a candidate, once per list it shares.
///
/// The postings are grouped by signature (exec/group_by_signature.h) into
/// one entity array, each list a contiguous run in input order. The lists
/// of two or more entities are then put in the order step 1 verifies
/// them: ascending length, then first entity, then signature. Pairs that
/// share a rare signature (likely similar) go first, and the long lists
/// of stop-word-like signatures (the page owner's name on every entity)
/// come last, by when the whole-list transitivity skip usually takes
/// them in O(|l|). The order is two stable counting passes over the
/// lists, first entity and then length, so it costs linear time.

namespace dime {
namespace exec {

/// One list: entities[begin, begin + len) of its InvertedLists.
struct ListRun {
  uint32_t begin = 0;
  uint32_t len = 0;
};

struct InvertedLists {
  /// Every posting's entity, grouped by signature in signature order.
  std::vector<int> entities;
  /// The lists of two or more entities, in visiting order.
  std::vector<ListRun> order;
};

/// Builds the lists of the (signature, entity) postings in `parts`, read
/// in order; entities must lie in [0, num_entities). Each part is freed
/// once it has been grouped.
InvertedLists BuildInvertedLists(
    WorkStealingPool* pool, size_t num_entities,
    std::vector<std::vector<std::pair<uint64_t, int>>>* parts);

}  // namespace exec
}  // namespace dime

#endif  // DIME_EXEC_INVERTED_LISTS_H_
