// The epoch machinery's contract (store/epoch.h): Install publishes
// atomically, Pin refcounts one generation for a request's lifetime, and
// a superseded epoch is destroyed — retire hook, unmapping — exactly when
// its last pin drops, never earlier. These are the invariants the chaos
// harness (chaos_swap_test.cc) then hammers under concurrency.

#include "src/store/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/mutex.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"

namespace dime {
namespace {

/// One Scholar page named page_0 under the demo corpus's rules and venue
/// tree.
Corpus PageCorpus(int seed = 7, size_t entities = 20) {
  Corpus corpus = MakeDemoCorpus(0);
  ScholarGenOptions gen;
  gen.num_correct = entities;
  gen.seed = seed;
  Group page = GenerateScholarGroup("Owner", gen);
  page.name = "page_0";
  corpus.groups.push_back(std::move(page));
  return corpus;
}

ServingCorpus MakeCorpus(int seed = 7, size_t entities = 20) {
  return PrepareCorpus(PageCorpus(seed, entities));
}

/// Thread-safe recorder for retire-hook firings.
struct RetireLog {
  Mutex mu;
  std::vector<uint64_t> sequences DIME_GUARDED_BY(mu);
  EpochManager::RetireHook Hook() {
    return [this](uint64_t sequence) {
      MutexLock lock(&mu);
      sequences.push_back(sequence);
    };
  }
  std::vector<uint64_t> Snapshot() {
    MutexLock lock(&mu);
    return sequences;
  }
};

TEST(EpochTest, InstallPublishesAndPinSeesLatest) {
  EpochManager manager;
  EXPECT_EQ(manager.Pin(), nullptr);
  EXPECT_EQ(manager.current_sequence(), 0u);

  std::shared_ptr<const CorpusEpoch> first = manager.Install(MakeCorpus(1));
  EXPECT_EQ(first->sequence(), 1u);
  EXPECT_EQ(manager.Pin()->sequence(), 1u);
  EXPECT_EQ(manager.current_sequence(), 1u);

  std::shared_ptr<const CorpusEpoch> second = manager.Install(MakeCorpus(2));
  EXPECT_EQ(manager.Pin()->sequence(), 2u);
  EXPECT_EQ(manager.installed(), 2u);
  // Install returns the epoch that is actually SERVING — here the one it
  // just published (and when a racing install wins, the winner), so a
  // reload outcome never describes an epoch that lost the race and will
  // retire without serving.
  EXPECT_EQ(second.get(), manager.Pin().get());
}

TEST(EpochTest, RetireFiresExactlyWhenLastPinDrops) {
  RetireLog log;
  EpochManager manager(log.Hook());
  manager.Install(MakeCorpus(1));
  std::shared_ptr<const CorpusEpoch> pin = manager.Pin();

  manager.Install(MakeCorpus(2));
  // Epoch 1 is superseded but pinned: it must NOT retire yet.
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(manager.retired(), 0u);
  EXPECT_EQ(pin->corpus().groups.size(), 1u);  // still fully usable

  pin.reset();  // last reference drops: destructor + hook run now
  std::vector<uint64_t> fired = log.Snapshot();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
  EXPECT_EQ(manager.retired(), 1u);
}

TEST(EpochTest, UnpinnedEpochRetiresAtInstall) {
  RetireLog log;
  EpochManager manager(log.Hook());
  manager.Install(MakeCorpus(1));
  manager.Install(MakeCorpus(2));  // nothing pinned epoch 1
  std::vector<uint64_t> fired = log.Snapshot();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
}

TEST(EpochTest, PinnedEpochOutlivesTheManager) {
  RetireLog log;
  std::shared_ptr<const CorpusEpoch> pin;
  {
    EpochManager manager(log.Hook());
    manager.Install(MakeCorpus(1));
    pin = manager.Pin();
  }
  // The manager is gone; the pinned epoch (and the control block its
  // deleter holds) must still be intact.
  EXPECT_EQ(pin->FindGroup("page_0")->name, "page_0");
  EXPECT_TRUE(log.Snapshot().empty());
  pin.reset();
  ASSERT_EQ(log.Snapshot().size(), 1u);
}

TEST(EpochTest, UnmapDelayFailpointStillRetires) {
  RetireLog log;
  EpochManager manager(log.Hook());
  manager.Install(MakeCorpus(1));
  {
    ScopedFailpoint delay(failpoints::kEpochUnmapDelay);
    manager.Install(MakeCorpus(2));  // retire of epoch 1 sleeps, then runs
  }
  std::vector<uint64_t> fired = log.Snapshot();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
}

TEST(EpochTest, RetirementInsideInstallDoesNotBlockPin) {
  // The retire hook of epoch 1 parks the installing thread until the test
  // releases it, so the retirement is provably still running while the
  // concurrent Pin() is made. Declared before the manager: epoch 2
  // retires (and fires the hook again) when the manager is destroyed.
  std::promise<void> retiring;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  EpochManager manager([&](uint64_t sequence) {
    if (sequence != 1) return;
    retiring.set_value();
    released.wait();
  });
  manager.Install(MakeCorpus(1));
  ScopedFailpoint delay(failpoints::kEpochUnmapDelay);
  // Nothing pins epoch 1, so Install itself retires it: the failpoint
  // sleeps, the epoch is freed, then the hook parks.
  std::thread installer([&] { manager.Install(MakeCorpus(2)); });
  retiring.get_future().wait();
  std::future<std::shared_ptr<const CorpusEpoch>> pin =
      std::async(std::launch::async, [&] { return manager.Pin(); });
  const bool returned =
      pin.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();
  installer.join();
  EXPECT_TRUE(returned) << "Pin() waited for the superseded epoch to retire";
  std::shared_ptr<const CorpusEpoch> pinned = pin.get();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->sequence(), 2u);
  EXPECT_EQ(manager.retired(), 1u);
}

TEST(EpochTest, GroupAndPreparedLookup) {
  EpochManager manager;
  std::shared_ptr<const CorpusEpoch> epoch = manager.Install(MakeCorpus(1));
  const Group* group = epoch->FindGroup("page_0");
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group, &epoch->corpus().groups[0]->group());
  EXPECT_EQ(epoch->FindGroup("no_such_page"), nullptr);
  // Every resident group is prepared, from the resident copy; an equal
  // copy is not resident.
  ASSERT_NE(epoch->ResidentOf(*group), nullptr);
  EXPECT_EQ(epoch->ResidentOf(*group)->prepared().group, group);
  const Group copy = *group;
  EXPECT_EQ(epoch->ResidentOf(copy), nullptr);
}

TEST(EpochTest, TsvCorpusGetsASynthesizedFingerprint) {
  EpochManager manager;
  std::shared_ptr<const CorpusEpoch> a = manager.Install(MakeCorpus(1));
  EXPECT_TRUE(a->fingerprint_lo() != 0 || a->fingerprint_hi() != 0);

  // Identical content synthesizes the identical fingerprint (epochs with
  // equal content MAY share cache entries)...
  EpochManager other;
  std::shared_ptr<const CorpusEpoch> same = other.Install(MakeCorpus(1));
  EXPECT_EQ(a->fingerprint_lo(), same->fingerprint_lo());
  EXPECT_EQ(a->fingerprint_hi(), same->fingerprint_hi());

  // ...and any content change moves it.
  std::shared_ptr<const CorpusEpoch> different =
      other.Install(MakeCorpus(2));
  EXPECT_TRUE(a->fingerprint_lo() != different->fingerprint_lo() ||
              a->fingerprint_hi() != different->fingerprint_hi());
}

TEST(EpochTest, GroupLookupIsByNameAndFirstWins) {
  Corpus corpus = PageCorpus(1);
  Group second = corpus.groups[0];
  second.entities.pop_back();  // same name, different content
  corpus.groups.push_back(std::move(second));
  Group other = corpus.groups[0];
  other.name = "page_1";
  corpus.groups.push_back(std::move(other));
  EpochManager manager;
  std::shared_ptr<const CorpusEpoch> epoch =
      manager.Install(PrepareCorpus(std::move(corpus)));
  const auto& groups = epoch->corpus().groups;
  EXPECT_EQ(epoch->FindGroup("page_0"), &groups[0]->group());
  EXPECT_EQ(epoch->FindGroup("page_1"), &groups[2]->group());
  EXPECT_EQ(epoch->FindGroup("page_2"), nullptr);
  // The shadowed duplicate is not reachable by name, so it is not
  // resident as far as lookups by group go.
  EXPECT_EQ(epoch->ResidentOf(groups[0]->group()), groups[0].get());
  EXPECT_EQ(epoch->ResidentOf(groups[1]->group()), nullptr);
}

TEST(EpochTest, GroupKeyIsTheContentKeyResidentOrNot) {
  EpochManager manager;
  std::shared_ptr<const CorpusEpoch> epoch = manager.Install(MakeCorpus(1));
  const Group& resident = epoch->corpus().groups[0]->group();
  Fingerprint key = epoch->GroupKey(resident);
  EXPECT_EQ(key, GroupContentKey(resident));
  EXPECT_EQ(epoch->GroupKey(resident), key);  // memoized, unchanged

  // An inline copy (not resident) hashes to the same key; the name is
  // not part of it, the content is.
  Group copy = resident;
  copy.name = "renamed";
  EXPECT_EQ(epoch->GroupKey(copy), key);
  copy.entities[0].id += "x";
  EXPECT_NE(epoch->GroupKey(copy), key);
}

TEST(EpochTest, ContextKeyTracksRulesAndOntologiesNotGroups) {
  EpochManager manager;
  std::shared_ptr<const CorpusEpoch> base = manager.Install(MakeCorpus(1));
  EXPECT_EQ(manager.Install(MakeCorpus(2))->context_key(),
            base->context_key());

  Corpus tree_changed = PageCorpus(1);
  auto tree =
      std::make_shared<Ontology>(*tree_changed.context.ontologies[0].tree);
  tree->AddNode("Context Key Venue", 0);
  for (OntologyRef& ref : tree_changed.context.ontologies) ref.tree = tree;
  EXPECT_NE(
      manager.Install(PrepareCorpus(std::move(tree_changed)))->context_key(),
      base->context_key());

  Corpus mode_changed = PageCorpus(1);
  mode_changed.context.ontologies[0].mode = MapMode::kFuzzyName;
  EXPECT_NE(
      manager.Install(PrepareCorpus(std::move(mode_changed)))->context_key(),
      base->context_key());

  Corpus rules_changed = PageCorpus(1);
  rules_changed.negative.pop_back();
  EXPECT_NE(
      manager.Install(PrepareCorpus(std::move(rules_changed)))->context_key(),
      base->context_key());
}

TEST(EpochTest, ConcurrentFirstGroupKeyAgrees) {
  // A nonzero corpus fingerprint marks the corpus snapshot-backed, so the
  // epoch computes no group key at construction: the first GroupKey call
  // is the one the threads race.
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  EpochManager manager;
  for (int round = 0; round < kRounds; ++round) {
    ServingCorpus corpus = MakeCorpus(round + 1);
    corpus.content_fingerprint_lo = 0x5eed;
    const Fingerprint want = GroupContentKey(corpus.groups[0]->group());
    std::shared_ptr<const CorpusEpoch> epoch = manager.Install(std::move(corpus));
    const Group& group = epoch->corpus().groups[0]->group();

    std::atomic<int> waiting{kThreads};
    std::vector<Fingerprint> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        waiting.fetch_sub(1);
        while (waiting.load() > 0) {
        }
        got[static_cast<size_t>(t)] = epoch->GroupKey(group);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(got[static_cast<size_t>(t)], want)
          << "round " << round << " thread " << t;
    }
    EXPECT_EQ(epoch->GroupKey(group), want);
  }
}

TEST(EpochTest, RulesTextIsCanonical) {
  EpochManager manager;
  std::shared_ptr<const CorpusEpoch> epoch = manager.Install(MakeCorpus(1));
  EXPECT_FALSE(epoch->rules_text().empty());
}

}  // namespace
}  // namespace dime
