#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/dime.h"
#include "src/datagen/presets.h"
#include "src/entity/entity.h"
#include "src/store/delta_log.h"

/// \file inputs.h
/// Everything a workload feeds the program, made from the run's seed
/// (the same seed gives the same inputs), and the oracle every answer is
/// compared with. Input generation is never timed.

namespace perfbench {

/// Scholar pages in the demo generator's shape (about 130 entities each),
/// named page_0 .. page_{n-1}. Error counts vary page to page.
std::vector<dime::Group> MakeScholarPages(uint64_t seed, size_t count);

/// Scholar-shaped groups of 100-1000 entities with error rates from 2% to
/// 20%, named cold_<i>. Group i has the i-th size of an even ladder; the
/// seed assigns the (evenly spread) error rates to sizes and draws the
/// content.
std::vector<dime::Group> MakeColdPool(uint64_t seed, size_t count);

/// A copy of `base` whose entity ids all carry `suffix`. Rules never read
/// the id column, so the copy's decision equals the base's with the ids
/// renamed; the copy's bytes, and so its cache key, are new.
dime::Group WithIdSuffix(const dime::Group& base, const std::string& suffix);

/// One churn cycle's delta records: for each of `groups_per_cycle` pages
/// drawn from the most-read ones, an edit, an add and a remove.
std::vector<dime::DeltaRecord> MakeChurnBatch(
    const std::vector<dime::Group>& pages, uint64_t seed, size_t cycle,
    size_t groups_per_cycle, size_t hot_pages);

/// Writes the Scholar rules, ontology and `pages` as a snapshot.
bool WriteScholarSnapshot(const dime::ScholarSetup& setup,
                          const std::vector<dime::Group>& pages,
                          const std::string& path, std::string* error);

/// The oracle: the paper's Algorithm 1 (RunDime) on the group.
dime::DimeResult Oracle(const dime::Group& group,
                        const dime::ScholarSetup& setup);

/// The DecisionDigest a correct reply for `group` (its ids extended by
/// `id_suffix`, see WithIdSuffix) carries, given the decision `result`
/// computed on `group`.
uint64_t ExpectedDigest(const dime::DimeResult& result,
                        const dime::Group& group,
                        const std::string& id_suffix = "");

/// True when two engine results make the same decision: partitions,
/// pivot, and every scrollbar prefix.
bool SameDecision(const dime::DimeResult& a, const dime::DimeResult& b);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
