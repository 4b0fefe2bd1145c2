// The chaos harness for the live-corpus tentpole: snapshots of the
// serving corpus swap continuously while concurrent clients hammer
// Check(). The invariants under fire:
//
//   1. zero failed replies — a swap mid-request never surfaces as an
//      error (admission-control sheds are engineered out by capacity);
//   2. no cross-epoch mixing — every reply's decisions are byte-identical
//      to a single-epoch run of whichever epoch served it (the reply
//      carries its epoch pin, so "whichever" is observable). Cache hits
//      across epochs are legitimate — the variants recur, and the cache
//      is keyed on content and survives swaps — so this check is what
//      catches a wrong one, including a hit across a context change;
//   3. provable retirement — every superseded epoch's refcount-zero hook
//      fires exactly once, including with the "epoch/unmap-delay"
//      failpoint widening the race window.
//
// CI runs this under ASan+UBSan and TSan (the `chaos-swap` job); locally
// it is an ordinary — if deliberately noisy — tier-1 test.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/core/dime_plus.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/rules/rule.h"
#include "src/server/service.h"

namespace dime {
namespace {

constexpr int kVariants = 4;
/// The variant whose groups equal variant 0's and whose context differs.
constexpr int kContextVariant = 3;

/// Variant v of the serving corpus: the same group name throughout.
/// Variants 0-2 share rules and ontologies and differ in content
/// (distinct seeds), so a cross-epoch mixup changes decisions detectably.
/// Variant 3 has variant 0's content and one rule threshold changed, so a
/// cache key that ignored the context would serve it variant 0's answer.
Corpus VariantCorpus(int v) {
  Corpus corpus = MakeDemoCorpus(0);
  const int content = v == kContextVariant ? 0 : v;
  if (v == kContextVariant) {
    // Was "overlap(Authors) >= 2": more pairs merge in step 1.
    EXPECT_TRUE(ParsePositiveRule("overlap(Authors) >= 1", corpus.schema,
                                  &corpus.positive[0]));
  }
  ScholarGenOptions gen;
  gen.num_correct = 30;
  gen.seed = 500 + content * 31;
  gen.garbage_pubs = 2 + content;
  Group page = GenerateScholarGroup("Chaos Owner", gen);
  page.name = "page_0";
  corpus.groups.push_back(std::move(page));
  return corpus;
}

ServingCorpus MakeVariant(int v) { return PrepareCorpus(VariantCorpus(v)); }

/// The single-epoch golden answer for variant v, computed with the same
/// engine the service defaults to.
DimeResult GoldenFor(int v) {
  Corpus corpus = VariantCorpus(v);
  return RunDimePlus(corpus.groups[0], corpus.positive, corpus.negative,
                     corpus.context);
}

void ExpectSameDecisions(const DimeResult& golden, const DimeResult& got,
                         uint64_t sequence) {
  ASSERT_EQ(golden.partitions, got.partitions) << "epoch " << sequence;
  ASSERT_EQ(golden.pivot, got.pivot) << "epoch " << sequence;
  ASSERT_EQ(golden.flagged_by_prefix, got.flagged_by_prefix)
      << "epoch " << sequence;
}

TEST(ChaosSwapTest, ContinuousSwapUnderConcurrentLoad) {
  constexpr int kClients = 8;
  constexpr auto kDuration = std::chrono::milliseconds(2200);
  constexpr auto kSwapInterval = std::chrono::milliseconds(50);

  std::vector<DimeResult> golden;
  for (int v = 0; v < kVariants; ++v) golden.push_back(GoldenFor(v));
  // Not vacuous: the context-only variant really decides differently.
  ASSERT_NE(golden[kContextVariant].partitions, golden[0].partitions);

  std::atomic<uint64_t> retired{0};
  uint64_t installed_total = 0;
  {
    ServiceOptions options;
    options.num_workers = 4;
    // Roomy queue: this test must observe zero sheds, so admission
    // control cannot be the reason a reply went missing.
    options.queue_capacity = 4096;
    options.cache_capacity = 64;  // exercise fingerprint safety too
    options.epoch_retire_hook = [&retired](uint64_t) {
      retired.fetch_add(1, std::memory_order_relaxed);
    };
    DimeService service(MakeVariant(0), options);

    // Widen the unmap race on a sprinkle of retirements.
    ScopedFailpoint delay(failpoints::kEpochUnmapDelay, /*count=*/5, /*skip=*/3);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> checks{0};

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        CheckRequest request;
        request.group_name = "page_0";
        // Half the clients bypass the cache so both the engine path and
        // the cache path stay under fire throughout.
        request.bypass_cache = (c % 2 == 0);
        while (!stop.load(std::memory_order_relaxed)) {
          StatusOr<CheckReply> reply = service.Check(request);
          ASSERT_TRUE(reply.ok()) << reply.status().ToString();
          ASSERT_NE(reply->epoch, nullptr);
          ASSERT_TRUE(reply->result->status.ok())
              << reply->result->status.ToString();
          uint64_t sequence = reply->epoch->sequence();
          int variant = static_cast<int>((sequence - 1) % kVariants);
          ExpectSameDecisions(golden[variant], *reply->result, sequence);
          checks.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    // The swapper: a new epoch every 50ms for the whole run, on a fixed
    // cadence. Building and installing a corpus takes 10-30 ms under the
    // sanitizers with the clients saturating the cores; sleeping a full
    // interval after that work would stretch every period by it and fall
    // short of the install count below.
    uint64_t next_sequence = 2;
    auto tick = std::chrono::steady_clock::now();
    const auto deadline = tick + kDuration;
    while (std::chrono::steady_clock::now() < deadline) {
      int variant = static_cast<int>((next_sequence - 1) % kVariants);
      ServingCorpus next = MakeVariant(variant);
      tick += kSwapInterval;
      std::this_thread::sleep_until(tick);
      ReloadOutcome outcome = service.InstallCorpus(std::move(next));
      ASSERT_EQ(outcome.sequence, next_sequence);
      ++next_sequence;
    }
    installed_total = next_sequence - 1;

    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : clients) t.join();

    StatsSnapshot stats = service.Stats();
    EXPECT_EQ(stats.rejected, 0u) << "the roomy queue should never shed";
    EXPECT_EQ(stats.epochs_installed, installed_total);
    EXPECT_GE(installed_total, 30u) << "the swapper fell behind badly";
    EXPECT_GE(checks.load(), static_cast<uint64_t>(kClients))
        << "clients barely ran";
    // Every superseded epoch must already be retired: only the current
    // one (plus any reply pin still in a client's dying scope) may live.
    EXPECT_GE(retired.load() + 1, installed_total);
  }
  // Service destroyed: the last epoch's refcount hit zero too. Nothing
  // may be missing and nothing may retire twice.
  EXPECT_EQ(retired.load(), installed_total);
}

/// The swapper's failure path under load: a reload that dies before
/// install (failpoint "store/swap") must leave clients entirely
/// undisturbed on the last good epoch.
TEST(ChaosSwapTest, FailedReloadLeavesServingUntouched) {
  DimeService service(MakeVariant(0), ServiceOptions{});
  DimeResult golden = GoldenFor(0);

  ScopedFailpoint fail(failpoints::kStoreSwap);
  StatusOr<ReloadOutcome> outcome =
      service.ReloadFromSnapshot("/nonexistent/ignored.snap");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);

  CheckRequest request;
  request.group_name = "page_0";
  StatusOr<CheckReply> reply = service.Check(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->epoch->sequence(), 1u);
  ExpectSameDecisions(golden, *reply->result, 1);
}

/// Page p of the multi-page corpus the reload/merge harness serves.
Group ChurnPage(int p) {
  ScholarGenOptions gen;
  gen.num_correct = 30;
  gen.seed = 900 + p * 7;
  Group page = GenerateScholarGroup("Churn Owner " + std::to_string(p), gen);
  page.name = "page_" + std::to_string(p);
  return page;
}

/// Swaps that mix the two epoch producers: each cycle re-reads the
/// snapshot (a fresh mapping whose groups borrow from it) and then merges
/// a delta log on top (an epoch sharing all but one group with the
/// snapshot epoch). Pinned requests keep serving groups whose mapping
/// belongs to an epoch that already retired, with the unmap-delay
/// failpoint widening the window; under ASan a group released too early
/// is a use after unmap. Every reply must carry the decisions of the
/// content its epoch holds for that page.
TEST(ChaosSwapTest, SnapshotReloadsInterleavedWithDeltaMergesUnderLoad) {
  constexpr int kClients = 8;
  constexpr int kPages = 4;
  constexpr auto kDuration = std::chrono::milliseconds(2000);

  ScholarSetup setup = MakeScholarSetup();
  std::vector<Group> pages;
  for (int p = 0; p < kPages; ++p) pages.push_back(ChurnPage(p));
  const std::string snap = ::testing::TempDir() + "/chaos_churn.snap";
  SnapshotWriteRequest write;
  write.groups = &pages;
  write.positive = &setup.positive;
  write.negative = &setup.negative;
  write.context = &setup.context;
  ASSERT_TRUE(WriteSnapshot(write, snap).ok());

  // Cycle c's delta edits page c % kPages. The golden table holds the
  // decisions for every content a page can have: as built, or edited.
  auto batch_of = [&pages](int cycle) {
    const Group& page = pages[static_cast<size_t>(cycle % kPages)];
    DeltaRecord edit;
    edit.op = DeltaRecord::Op::kEdit;
    edit.group = page.name;
    edit.entity_id = page.entities[0].id;
    edit.values = page.entities[1].values;
    return edit;
  };
  std::unordered_map<Fingerprint, DimeResult, FingerprintHash> golden;
  for (int p = 0; p < kPages; ++p) {
    Group edited = pages[static_cast<size_t>(p)];
    ASSERT_TRUE(ApplyDeltaRecords({batch_of(p)}, &edited).ok());
    for (const Group* page : {&pages[static_cast<size_t>(p)], &edited}) {
      golden[GroupContentKey(*page)] = RunDimePlus(
          *page, setup.positive, setup.negative, setup.context);
    }
  }

  std::atomic<uint64_t> retired{0};
  uint64_t installed_total = 0;
  int cycles = 0;
  {
    StatusOr<LoadedSnapshot> loaded = LoadSnapshot(snap);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ServiceOptions options;
    options.num_workers = 4;
    options.queue_capacity = 4096;
    options.cache_capacity = 64;
    options.epoch_retire_hook = [&retired](uint64_t) {
      retired.fetch_add(1, std::memory_order_relaxed);
    };
    DimeService service(CorpusFromSnapshot(std::move(loaded).value()),
                        options);
    ScopedFailpoint delay(failpoints::kEpochUnmapDelay, /*count=*/8,
                          /*skip=*/2);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> checks{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        CheckRequest request;
        request.group_name = "page_" + std::to_string(c % kPages);
        request.bypass_cache = (c % 2 == 0);
        while (!stop.load(std::memory_order_relaxed)) {
          StatusOr<CheckReply> reply = service.Check(request);
          ASSERT_TRUE(reply.ok()) << reply.status().ToString();
          ASSERT_TRUE(reply->result->status.ok())
              << reply->result->status.ToString();
          auto want = golden.find(GroupContentKey(*reply->group));
          ASSERT_NE(want, golden.end())
              << "epoch " << reply->epoch->sequence()
              << " served content no cycle produced";
          ExpectSameDecisions(want->second, *reply->result,
                              reply->epoch->sequence());
          checks.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    const std::string log = ::testing::TempDir() + "/chaos_churn.dlog";
    std::remove(log.c_str());
    const auto deadline = std::chrono::steady_clock::now() + kDuration;
    while (std::chrono::steady_clock::now() < deadline) {
      {
        StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(log);
        ASSERT_TRUE(writer.ok()) << writer.status().ToString();
        ASSERT_TRUE(writer->Append(batch_of(cycles)).ok());
      }
      StatusOr<ReloadOutcome> reloaded = service.ReloadFromSnapshot(snap);
      ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
      StatusOr<ReloadOutcome> merged =
          service.ApplyDeltaLog(log, /*rotate_applied=*/true);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      ASSERT_EQ(merged->groups_prepared, 1u);
      // The merged epoch holds exactly this cycle's edit.
      std::shared_ptr<const CorpusEpoch> epoch = service.CurrentEpoch();
      const DeltaRecord edit = batch_of(cycles);
      for (int p = 0; p < kPages; ++p) {
        const Group& page = pages[static_cast<size_t>(p)];
        const Group* served = epoch->FindGroup(page.name);
        ASSERT_NE(served, nullptr);
        EXPECT_EQ(GroupContentKey(*served) == GroupContentKey(page),
                  page.name != edit.group)
            << "cycle " << cycles << " " << page.name;
      }
      std::remove((log + ".applied." + std::to_string(merged->sequence))
                      .c_str());
      ++cycles;
    }
    installed_total = service.Stats().epochs_installed;

    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : clients) t.join();

    StatsSnapshot stats = service.Stats();
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_GE(cycles, 5) << "the swapper fell behind badly";
    EXPECT_EQ(installed_total, 1u + 2u * static_cast<uint64_t>(cycles));
    EXPECT_GE(checks.load(), static_cast<uint64_t>(kClients));
    EXPECT_GE(retired.load() + 1, installed_total);
  }
  EXPECT_EQ(retired.load(), installed_total);
}

}  // namespace
}  // namespace dime
