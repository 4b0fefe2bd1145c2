#include "src/core/corpus.h"

#include <atomic>
#include <exception>
#include <string>
#include <thread>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/mutex.h"
#include "src/common/threads.h"

namespace dime {
namespace {

/// Cross-group tallies shared by the pool. Multi-word state (counts plus
/// the first fault's text) → Mutex + DIME_GUARDED_BY per the mutex.h
/// convention; the work-stealing cursor stays a bare atomic below because
/// fetch_add is its entire contract.
struct CorpusProgress {
  Mutex mu;
  size_t faulted DIME_GUARDED_BY(mu) = 0;     ///< groups ending INTERNAL
  size_t truncated DIME_GUARDED_BY(mu) = 0;   ///< deadline/cancel gated
  std::string first_fault DIME_GUARDED_BY(mu);

  void RecordFault(const std::string& what) DIME_EXCLUDES(mu) {
    MutexLock lock(&mu);
    if (faulted == 0) first_fault = what;
    ++faulted;
  }

  void RecordTruncated() DIME_EXCLUDES(mu) {
    MutexLock lock(&mu);
    ++truncated;
  }
};

}  // namespace

std::vector<DimeResult> RunCorpus(const std::vector<Group>& groups,
                                  const std::vector<PositiveRule>& positive,
                                  const std::vector<NegativeRule>& negative,
                                  const DimeContext& context,
                                  const CorpusOptions& options) {
  std::vector<DimeResult> results(groups.size());
  if (groups.empty()) return results;

  unsigned threads = ResolveThreadCount(options.num_threads);
  threads = std::min<unsigned>(threads, static_cast<unsigned>(groups.size()));

  CorpusProgress progress;
  std::atomic<size_t> next{0};
  // Workers write only results[g] for the g values their fetch_add
  // claimed — element access is disjoint by construction, so the results
  // vector itself needs no lock (the joins below publish the writes).
  auto worker = [&]() {
    while (true) {
      size_t g = next.fetch_add(1);
      if (g >= groups.size()) break;
      Status gate = internal::CheckRunControl(options.control, "corpus/group");
      if (!gate.ok()) {
        results[g] = internal::NoPartitionsResult(gate, negative.size());
        progress.RecordTruncated();
        continue;
      }
      try {
        PreparedGroup pg =
            PrepareGroup(groups[g], positive, negative, context);
        results[g] = options.use_dime_plus
                         ? RunDimePlus(pg, positive, negative,
                                       options.dime_plus, options.control)
                         : RunDime(pg, positive, negative, options.control);
      } catch (const std::exception& e) {
        results[g] = internal::NoPartitionsResult(
            InternalError(std::string("corpus worker fault on group ") +
                          std::to_string(g) + ": " + e.what()),
            negative.size());
        progress.RecordFault(e.what());
      } catch (...) {
        results[g] = internal::NoPartitionsResult(
            InternalError(std::string("corpus worker fault on group ") +
                          std::to_string(g) + ": unknown exception"),
            negative.size());
        progress.RecordFault("unknown exception");
      }
    }
  };
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  {
    MutexLock lock(&progress.mu);
    DIME_DCHECK_LE(progress.faulted + progress.truncated, groups.size());
    if (progress.faulted > 0) {
      DIME_LOG(WARNING) << "RunCorpus: " << progress.faulted << "/"
                        << groups.size() << " groups ended with a worker "
                        << "fault (first: " << progress.first_fault << ")";
    }
  }
  return results;
}

}  // namespace dime
