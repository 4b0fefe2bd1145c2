#include "src/exec/inverted_lists.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/exec/group_by_signature.h"

namespace dime {
namespace exec {

InvertedLists BuildInvertedLists(
    WorkStealingPool* pool, size_t num_entities,
    std::vector<std::vector<std::pair<uint64_t, int>>>* parts) {
  size_t total = 0;
  for (const auto& part : *parts) total += part.size();
  // The grouped postings are allocated before the arena that outlives
  // them, so freeing them leaves a hole malloc reuses rather than a free
  // heap top that it trims and the next check faults back in.
  std::vector<std::pair<uint64_t, int>> postings;
  postings.reserve(total);
  InvertedLists lists;
  lists.entities.resize(total);
  int* arena = lists.entities.data();

  // Group by signature; each bucket-range task copies its entities into
  // the arena and returns its lists of two or more entities.
  std::vector<ListRun> by_signature;
  size_t max_len = 0;
  {
    std::vector<std::vector<ListRun>> ranges = GroupBySignature<int>(
        pool, total, parts->size(),
        [parts](size_t p, const auto& emit) {
          for (const std::pair<uint64_t, int>& e : (*parts)[p]) {
            emit(e.first, e.second);
          }
        },
        [parts](size_t p) {
          std::vector<std::pair<uint64_t, int>>().swap((*parts)[p]);
        },
        &postings,
        [&postings, arena](size_t begin, size_t end) {
          const std::pair<uint64_t, int>* in = postings.data();
          std::vector<ListRun> found;
          size_t run = begin;
          for (size_t i = begin; i < end; ++i) {
            arena[i] = in[i].second;
            if (i + 1 < end && in[i + 1].first == in[i].first) continue;
            const size_t len = i + 1 - run;
            if (len >= 2) {
              found.push_back(ListRun{static_cast<uint32_t>(run),
                                      static_cast<uint32_t>(len)});
            }
            run = i + 1;
          }
          return found;
        });
    size_t num_lists = 0;
    for (const std::vector<ListRun>& range : ranges) num_lists += range.size();
    by_signature.reserve(num_lists);
    for (const std::vector<ListRun>& range : ranges) {
      for (const ListRun& l : range) {
        max_len = std::max<size_t>(max_len, l.len);
        by_signature.push_back(l);
      }
    }
  }
  std::vector<std::pair<uint64_t, int>>().swap(postings);

  // Visiting order by (length, first entity, signature): stable passes,
  // least significant key first.
  std::vector<ListRun> by_first;
  SortByKey(
      pool, by_signature, num_entities,
      [arena, num_entities](const ListRun& l) {
        DIME_DCHECK_LT(static_cast<size_t>(arena[l.begin]), num_entities);
        return static_cast<size_t>(arena[l.begin]);
      },
      &by_first);
  std::vector<ListRun>().swap(by_signature);
  SortByKey(
      pool, by_first, max_len + 1,
      [](const ListRun& l) { return static_cast<size_t>(l.len); },
      &lists.order);
  return lists;
}

}  // namespace exec
}  // namespace dime
