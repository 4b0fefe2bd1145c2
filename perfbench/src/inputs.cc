#include "perfbench/src/inputs.h"

#include <algorithm>
#include <random>

#include "src/core/preprocess.h"
#include "src/datagen/scholar_gen.h"
#include "src/store/snapshot.h"
#include "perfbench/src/util.h"

namespace perfbench {

using dime::Group;

namespace {

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + salt * 0xc2b2ae3d27d4eb4fULL;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 29);
}

}  // namespace

std::vector<Group> MakeScholarPages(uint64_t seed, size_t count) {
  std::vector<Group> pages;
  std::mt19937_64 rng(Mix(seed, 1));
  for (size_t i = 0; i < count; ++i) {
    dime::ScholarGenOptions gen;
    gen.num_correct = 120;
    gen.seed = Mix(seed, 100 + i);
    gen.garbage_pubs = 3 + rng() % 4;
    gen.chem_namesake_pubs = 2 + rng() % 3;
    Group page =
        dime::GenerateScholarGroup("Owner " + std::to_string(i), gen);
    page.name = "page_" + std::to_string(i);
    page.truth.clear();  // the program receives inputs, not answers
    pages.push_back(std::move(page));
  }
  return pages;
}

std::vector<Group> MakeColdPool(uint64_t seed, size_t count) {
  // Sizes and error rates are spread evenly over their ranges and paired
  // at random, so every seed's pool does about the same amount of work
  // while its groups differ.
  std::vector<Group> pool;
  std::mt19937_64 rng(Mix(seed, 2));
  std::vector<size_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  const double last = count > 1 ? static_cast<double>(count - 1) : 1.0;
  for (size_t i = 0; i < count; ++i) {
    size_t size = 100 + static_cast<size_t>(900.0 * i / last);
    double error_rate = 0.02 + 0.18 * order[i] / last;
    size_t errors = static_cast<size_t>(size * error_rate);
    dime::ScholarGenOptions gen;
    gen.num_correct = size - errors;
    gen.seed = Mix(seed, 10000 + i);
    gen.garbage_pubs = errors / 2;
    gen.chem_namesake_pubs = errors / 4;
    gen.cs_namesake_pubs = errors - errors / 2 - errors / 4;
    gen.secondary_field_pubs = rng() % 4;
    gen.side_interest_pubs = rng() % 3;
    Group group = dime::GenerateScholarGroup(
        "Cold Owner " + std::to_string(i), gen);
    group.name = "cold_" + std::to_string(i);
    group.truth.clear();
    pool.push_back(std::move(group));
  }
  return pool;
}

Group WithIdSuffix(const Group& base, const std::string& suffix) {
  Group copy = base;
  for (dime::Entity& e : copy.entities) e.id += suffix;
  return copy;
}

std::vector<dime::DeltaRecord> MakeChurnBatch(const std::vector<Group>& pages,
                                              uint64_t seed, size_t cycle,
                                              size_t groups_per_cycle,
                                              size_t hot_pages) {
  std::mt19937_64 rng(Mix(seed, 1000000 + cycle));
  std::vector<dime::DeltaRecord> batch;
  std::vector<size_t> chosen;
  while (chosen.size() < groups_per_cycle) {
    size_t g = rng() % std::min(hot_pages, pages.size());
    bool seen = false;
    for (size_t c : chosen) seen = seen || c == g;
    if (!seen) chosen.push_back(g);
  }
  for (size_t g : chosen) {
    const Group& page = pages[g];
    size_t edited = rng() % page.size();
    size_t removed = (edited + 1 + rng() % (page.size() - 1)) % page.size();
    size_t copied = rng() % page.size();

    dime::DeltaRecord edit;
    edit.op = dime::DeltaRecord::Op::kEdit;
    edit.group = page.name;
    edit.entity_id = page.entities[edited].id;
    edit.values = page.entities[edited].values;
    edit.values[dime::kScholarTitle] = {"Revised study " +
                                        std::to_string(cycle)};
    batch.push_back(std::move(edit));

    dime::DeltaRecord add;
    add.op = dime::DeltaRecord::Op::kAdd;
    add.group = page.name;
    add.entity_id = "add_" + std::to_string(cycle) + "_" + std::to_string(g);
    add.values = page.entities[copied].values;
    batch.push_back(std::move(add));

    dime::DeltaRecord remove;
    remove.op = dime::DeltaRecord::Op::kRemove;
    remove.group = page.name;
    remove.entity_id = page.entities[removed].id;
    batch.push_back(std::move(remove));
  }
  return batch;
}

bool WriteScholarSnapshot(const dime::ScholarSetup& setup,
                          const std::vector<Group>& pages,
                          const std::string& path, std::string* error) {
  dime::SnapshotWriteRequest request;
  request.groups = &pages;
  request.positive = &setup.positive;
  request.negative = &setup.negative;
  request.context = &setup.context;
  dime::Status written = dime::WriteSnapshot(request, path);
  if (!written.ok()) *error = written.ToString();
  return written.ok();
}

dime::DimeResult Oracle(const Group& group, const dime::ScholarSetup& setup) {
  dime::PreparedGroup pg =
      dime::PrepareGroup(group, setup.positive, setup.negative, setup.context);
  return dime::RunDime(pg, setup.positive, setup.negative);
}

uint64_t ExpectedDigest(const dime::DimeResult& result, const Group& group,
                        const std::string& id_suffix) {
  std::vector<uint64_t> per_prefix;
  for (const auto& flagged : result.flagged_by_prefix) {
    per_prefix.push_back(flagged.size());
  }
  std::vector<std::string> ids;
  for (int e : result.flagged()) {
    ids.push_back(group.entities[static_cast<size_t>(e)].id + id_suffix);
  }
  return DecisionDigest(result.partitions.size(), result.PivotEntities().size(),
                        per_prefix, ids);
}

bool SameDecision(const dime::DimeResult& a, const dime::DimeResult& b) {
  return a.status.ok() && b.status.ok() && a.partitions == b.partitions &&
         a.pivot == b.pivot && a.flagged_by_prefix == b.flagged_by_prefix;
}

}  // namespace perfbench
