#include "src/server/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/mutex.h"
#include "src/core/dime.h"
#include "src/core/dime_plus.h"
#include "src/core/preprocess.h"
#include "src/datagen/dbgen_gen.h"
#include "src/datagen/scholar_gen.h"
#include "src/repro/experiments.h"
#include "src/rules/rule.h"

namespace dime {
namespace {

/// Generated pages page_0, page_1, ... Kept small — the suite runs on
/// the TSan leg too.
std::vector<Group> MakeTestPages(size_t pages = 2) {
  std::vector<Group> groups;
  for (size_t i = 0; i < pages; ++i) {
    ScholarGenOptions gen;
    gen.num_correct = 40;
    gen.seed = 100 + i * 13;
    Group page = GenerateScholarGroup("Owner " + std::to_string(i), gen);
    page.name = "page_" + std::to_string(i);
    groups.push_back(std::move(page));
  }
  return groups;
}

/// The demo corpus's rules and venue tree over `pages`.
Corpus ScholarCorpusOf(std::vector<Group> pages) {
  Corpus corpus = MakeDemoCorpus(0);
  corpus.groups = std::move(pages);
  return corpus;
}

/// `pages` prepared under the demo corpus's rules, as dime_server serves
/// its --group files.
ServingCorpus TestCorpusOf(std::vector<Group> pages) {
  return PrepareCorpus(ScholarCorpusOf(std::move(pages)));
}

ServingCorpus MakeTestCorpus(size_t pages = 2) {
  return TestCorpusOf(MakeTestPages(pages));
}

/// Writes `corpus`'s groups and rules to a snapshot at `path`.
void WriteTestSnapshot(const ServingCorpus& corpus, const std::string& path) {
  std::vector<Group> pages;
  for (const auto& resident : corpus.groups) pages.push_back(resident->group());
  SnapshotWriteRequest write;
  write.groups = &pages;
  write.positive = &corpus.positive;
  write.negative = &corpus.negative;
  write.context = &corpus.context;
  ASSERT_TRUE(WriteSnapshot(write, path).ok());
}

/// Blocks workers in the pre-run hook until Open(). `arrivals` counts
/// workers that reached the gate, so tests can wait for a worker to be
/// provably parked before filling the queue behind it.
struct WorkerGate {
  Mutex mu;
  CondVar cv;
  bool open DIME_GUARDED_BY(mu) = false;
  std::atomic<int> arrivals{0};

  std::function<void()> Hook() {
    return [this] {
      arrivals.fetch_add(1);
      MutexLock lock(&mu);
      while (!open) cv.Wait(&mu);
    };
  }
  void Open() {
    {
      MutexLock lock(&mu);
      open = true;
    }
    cv.SignalAll();
  }
};

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 10000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(DimeServiceTest, CheckPreloadedGroupByName) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  CheckRequest request;
  request.group_name = "page_0";
  StatusOr<CheckReply> reply = service.Check(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_NE(reply->result, nullptr);
  EXPECT_TRUE(reply->result->status.ok())
      << reply->result->status.ToString();
  EXPECT_FALSE(reply->cache_hit);
  EXPECT_FALSE(reply->result->partitions.empty());
  // The generated page has errors; the full-disjunction prefix flags some.
  EXPECT_FALSE(reply->result->flagged().empty());

  StatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  // One engine run so far: the service's cumulative engine counters must
  // equal that run's own stats exactly.
  EXPECT_EQ(stats.pairs_skipped_by_transitivity,
            reply->result->stats.pairs_skipped_by_transitivity);
  EXPECT_EQ(stats.kernel_early_exits,
            reply->result->stats.kernel_early_exits);
}

TEST(DimeServiceTest, LargeGroupRunsOnTheEnginePoolLikeRunDimePlus) {
  // From kPrepareChunkEntities entities "plus" runs on the service's
  // shared engine pool; its decisions are RunDimePlus's on one executor.
  DbgenOptions gen;
  gen.num_entities = kPrepareChunkEntities;
  gen.seed = 19;
  const Group group = GenerateDbgenGroup(gen);
  ServingCorpus corpus;
  corpus.schema = DbgenSchema();
  corpus.positive = DbgenPositiveRules();
  corpus.negative = DbgenNegativeRules();
  const DimeResult expected = RunDimePlus(
      PrepareGroup(group, corpus.positive, corpus.negative, {}),
      corpus.positive, corpus.negative);
  ASSERT_TRUE(expected.ok());
  ServiceOptions options;
  options.engine_threads = 4;
  DimeService service(std::move(corpus), options);
  CheckRequest request;
  request.group = &group;
  request.engine = EngineKind::kPlus;
  StatusOr<CheckReply> reply = service.Check(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const DimeResult& got = *reply->result;
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  EXPECT_EQ(got.partitions, expected.partitions);
  EXPECT_EQ(got.pivot, expected.pivot);
  EXPECT_EQ(got.first_flagging_rule, expected.first_flagging_rule);
  EXPECT_EQ(got.flagged_by_prefix, expected.flagged_by_prefix);
  EXPECT_EQ(got.stats.candidate_pairs, expected.stats.candidate_pairs);
  EXPECT_EQ(got.stats.negative_pair_checks,
            expected.stats.negative_pair_checks);
}

TEST(DimeServiceTest, SecondIdenticalCheckIsACacheHit) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  CheckRequest request;
  request.group_name = "page_0";
  StatusOr<CheckReply> first = service.Check(request);
  ASSERT_TRUE(first.ok());
  StatusOr<CheckReply> second = service.Check(request);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(first->cache_hit);
  EXPECT_TRUE(second->cache_hit);
  // The hit returns the cached object itself, not a recomputation.
  EXPECT_EQ(first->result.get(), second->result.get());

  StatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache_size, 1u);
}

TEST(DimeServiceTest, CacheKeyIsContentNotName) {
  ServingCorpus corpus = MakeTestCorpus();
  Group renamed = corpus.groups[0]->group();
  renamed.name = "a re-crawl of page_0 under another name";
  DimeService service(std::move(corpus), ServiceOptions{});

  CheckRequest by_name;
  by_name.group_name = "page_0";
  ASSERT_TRUE(service.Check(by_name).ok());

  // Same entity content submitted inline under a different name: hit.
  CheckRequest inline_request;
  inline_request.group = &renamed;
  StatusOr<CheckReply> reply = service.Check(inline_request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->cache_hit);
}

TEST(DimeServiceTest, BypassCacheSkipsLookupAndInsert) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  CheckRequest request;
  request.group_name = "page_0";
  request.bypass_cache = true;
  ASSERT_TRUE(service.Check(request).ok());
  StatusOr<CheckReply> second = service.Check(request);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);
  StatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);  // lookups skipped entirely
  EXPECT_EQ(stats.cache_size, 0u);    // inserts skipped too
}

TEST(DimeServiceTest, EngineOverridesProduceSameFlaggedSet) {
  // naive and plus implement the same semantics (dime_plus_test proves
  // this broadly); here it pins that the service routes the override.
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  CheckRequest request;
  request.group_name = "page_0";
  request.engine = EngineKind::kNaive;
  StatusOr<CheckReply> naive = service.Check(request);
  ASSERT_TRUE(naive.ok());
  request.engine = EngineKind::kPlus;
  StatusOr<CheckReply> plus = service.Check(request);
  ASSERT_TRUE(plus.ok());
  // Different engines are different cache keys — no false sharing.
  EXPECT_FALSE(plus->cache_hit);
  EXPECT_EQ(naive->result->flagged(), plus->result->flagged());
}

TEST(DimeServiceTest, UnknownGroupNameIsNotFound) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  CheckRequest request;
  request.group_name = "no_such_page";
  StatusOr<CheckReply> reply = service.Check(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
}

TEST(DimeServiceTest, MissingGroupIsInvalidArgument) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  StatusOr<CheckReply> reply = service.Check(CheckRequest{});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
}

TEST(DimeServiceTest, InlineGroupWithWrongSchemaIsSchemaMismatch) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  Group wrong;
  wrong.schema = Schema({"completely", "different", "attributes"});
  CheckRequest request;
  request.group = &wrong;
  StatusOr<CheckReply> reply = service.Check(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kSchemaMismatch);
}

TEST(DimeServiceTest, FingerprintSeparatesEnginesAndTracksContent) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  const Group& page = service.CurrentEpoch()->corpus().groups[0]->group();
  Fingerprint plus = service.RequestFingerprint(EngineKind::kPlus, page);
  Fingerprint naive = service.RequestFingerprint(EngineKind::kNaive, page);
  EXPECT_NE(plus, naive);

  Group renamed = page;
  renamed.name = "other";
  EXPECT_EQ(service.RequestFingerprint(EngineKind::kPlus, renamed), plus);

  Group mutated = page;
  mutated.entities.pop_back();
  EXPECT_NE(service.RequestFingerprint(EngineKind::kPlus, mutated), plus);
}

TEST(DimeServiceTest, SnapshotWarmStartServesIdenticalResults) {
  ServingCorpus tsv = MakeTestCorpus();
  const std::string path = ::testing::TempDir() + "/service_corpus.snap";
  WriteTestSnapshot(tsv, path);

  StatusOr<LoadedSnapshot> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  DimeService warm(CorpusFromSnapshot(std::move(loaded).value()),
                   ServiceOptions{});
  DimeService cold(std::move(tsv), ServiceOptions{});

  for (const char* name : {"page_0", "page_1"}) {
    CheckRequest check;
    check.group_name = name;
    StatusOr<CheckReply> warm_reply = warm.Check(check);
    StatusOr<CheckReply> cold_reply = cold.Check(check);
    ASSERT_TRUE(warm_reply.ok() && cold_reply.ok()) << name;
    EXPECT_EQ(warm_reply->result->partitions, cold_reply->result->partitions)
        << name;
    EXPECT_EQ(warm_reply->result->flagged_by_prefix,
              cold_reply->result->flagged_by_prefix)
        << name;
    EXPECT_EQ(warm_reply->result->pivot, cold_reply->result->pivot) << name;
  }
}

TEST(DimeServiceTest, CacheKeyHashesRawValuesNotTheirTsvRendering) {
  // The TSV writer sanitizes tab/newline to a space and '|' to '/', and
  // joins a value's pieces with '|'. The key hashes the raw pieces, so
  // groups that render to the same TSV still get distinct keys (a
  // delta-edited resident page may hold raw "a|b" while an inline group
  // holds "a/b").
  DimeService service(MakeTestCorpus(/*pages=*/1), ServiceOptions{});
  const Group& page = service.CurrentEpoch()->corpus().groups[0]->group();
  auto key_with = [&](AttributeValue value) {
    Group g = page;
    g.entities[0].values[0] = std::move(value);
    return service.RequestFingerprint(EngineKind::kPlus, g);
  };
  EXPECT_NE(key_with({"a|b"}), key_with({"a/b"}));
  EXPECT_NE(key_with({"x\ty"}), key_with({"x y"}));
  EXPECT_NE(key_with({"x\ny"}), key_with({"x y"}));
  EXPECT_NE(key_with({"a|b"}), key_with({"a", "b"}));
  EXPECT_NE(key_with({"ab", "c"}), key_with({"a", "bc"}));
  EXPECT_EQ(key_with({"a|b"}), key_with({"a|b"}));

  // The same holds for entity ids and attribute names.
  Group tab_id = page;
  tab_id.entities[0].id = "p\t1";
  Group space_id = page;
  space_id.entities[0].id = "p 1";
  EXPECT_NE(service.RequestFingerprint(EngineKind::kPlus, tab_id),
            service.RequestFingerprint(EngineKind::kPlus, space_id));
}

TEST(DimeServiceTest, FullQueueShedsWithResourceExhaustedNotBlocking) {
  WorkerGate gate;
  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.cache_capacity = 0;
  options.worker_pre_run_hook = gate.Hook();
  DimeService service(MakeTestCorpus(), options);

  CheckRequest request;
  request.group_name = "page_0";
  request.bypass_cache = true;

  // First request: popped by the (sole) worker, which parks at the gate.
  std::thread in_flight([&] {
    StatusOr<CheckReply> reply = service.Check(request);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  });
  ASSERT_TRUE(WaitUntil([&] { return gate.arrivals.load() == 1; }));

  // Second request: fills the (capacity-1) queue behind the parked worker.
  std::thread queued([&] {
    StatusOr<CheckReply> reply = service.Check(request);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  });
  ASSERT_TRUE(WaitUntil([&] { return service.Stats().queue_depth == 1; }));

  // Third request: shed immediately — admission control never blocks.
  auto t0 = std::chrono::steady_clock::now();
  StatusOr<CheckReply> shed = service.Check(request);
  auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("retry"), std::string::npos);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);

  gate.Open();
  in_flight.join();
  queued.join();

  StatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(DimeServiceTest, DeadlineExpiredInQueueAnswersWithoutEngineRun) {
  WorkerGate gate;
  ServiceOptions options;
  options.num_workers = 1;
  options.worker_pre_run_hook = gate.Hook();
  DimeService service(MakeTestCorpus(), options);

  CheckRequest request;
  request.group_name = "page_0";
  request.deadline_ms = 1;  // anchored at admission — the park eats it

  std::thread checker([&] {
    StatusOr<CheckReply> reply = service.Check(request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    // Engine never ran: empty-but-valid result, as on an engine's expiry
    // before step 1.
    EXPECT_EQ(reply->result->status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(reply->result->partitions.empty());
    // One (empty) scrollbar prefix per negative rule, as every engine.
    EXPECT_EQ(reply->result->flagged_by_prefix.size(),
              reply->epoch->corpus().negative.size());
  });
  ASSERT_TRUE(WaitUntil([&] { return gate.arrivals.load() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  checker.join();

  // Truncated results are never cached.
  EXPECT_EQ(service.Stats().cache_size, 0u);
}

TEST(DimeServiceTest, DefaultDeadlineAppliesWhenRequestCarriesNone) {
  WorkerGate gate;
  ServiceOptions options;
  options.num_workers = 1;
  options.default_deadline_ms = 1;
  options.worker_pre_run_hook = gate.Hook();
  DimeService service(MakeTestCorpus(), options);

  CheckRequest request;
  request.group_name = "page_0";
  std::thread checker([&] {
    StatusOr<CheckReply> reply = service.Check(request);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->result->status.code(), StatusCode::kDeadlineExceeded);
  });
  ASSERT_TRUE(WaitUntil([&] { return gate.arrivals.load() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  checker.join();
}

TEST(DimeServiceTest, ShutdownDrainsAdmittedWorkThenRefusesNew) {
  WorkerGate gate;
  ServiceOptions options;
  options.num_workers = 1;
  options.worker_pre_run_hook = gate.Hook();
  DimeService service(MakeTestCorpus(), options);

  CheckRequest request;
  request.group_name = "page_0";
  std::atomic<bool> drained{false};
  std::thread in_flight([&] {
    StatusOr<CheckReply> reply = service.Check(request);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    drained.store(true);
  });
  ASSERT_TRUE(WaitUntil([&] { return gate.arrivals.load() == 1; }));

  // Shutdown from another thread (it blocks until workers exit, and the
  // worker is parked until the gate opens).
  std::thread closer([&] { service.Shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.Open();
  closer.join();
  in_flight.join();
  EXPECT_TRUE(drained.load());  // admitted work finished, never dropped

  // The drained request's result was cached, and the cache sits in front
  // of the queue: a cached read still succeeds after shutdown.
  StatusOr<CheckReply> cached = service.Check(request);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_TRUE(cached->cache_hit);

  // Anything that needs a worker is refused.
  request.bypass_cache = true;
  StatusOr<CheckReply> refused = service.Check(request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);

  service.Shutdown();  // idempotent
}

TEST(DimeServiceTest, StatsLatencyPercentilesPopulated) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  CheckRequest request;
  request.group_name = "page_0";
  ASSERT_TRUE(service.Check(request).ok());
  ASSERT_TRUE(service.Check(request).ok());  // a hit also records latency
  StatsSnapshot stats = service.Stats();
  EXPECT_GT(stats.p50_ms, 0.0);
  EXPECT_GE(stats.p99_ms, stats.p50_ms);
  EXPECT_EQ(stats.workers, service.options().num_workers);
  EXPECT_EQ(stats.queue_capacity, service.options().queue_capacity);
}

TEST(DimeServiceTest, ConcurrentMixedTrafficStaysConsistent) {
  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 64;
  DimeService service(MakeTestCorpus(/*pages=*/3), options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  std::atomic<int> ok_replies{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        CheckRequest request;
        request.group_name = "page_" + std::to_string((t + i) % 3);
        StatusOr<CheckReply> reply = service.Check(request);
        // With capacity 64 nothing is shed here.
        if (reply.ok() && reply->result->status.ok()) {
          ok_replies.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_replies.load(), kThreads * kPerThread);

  StatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_EQ(stats.rejected, 0u);
  // 3 distinct (engine, rules, content) keys. Concurrent first requests
  // for one key can all miss before the first insert lands, so misses is
  // a lower bound, but every admitted request is exactly one or the other.
  EXPECT_GE(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.accepted);
  EXPECT_EQ(stats.cache_size, 3u);
}

// ---------------------------------------------------------------------------
// Live corpus: install / reload / delta merge against a running service.

TEST(LiveCorpusTest, InstallCorpusSwapsEpochAndCacheCannotServeStale) {
  DimeService service(MakeTestCorpus(/*pages=*/1), ServiceOptions{});
  size_t original_entities;
  {
    CheckRequest request;
    request.group_name = "page_0";
    StatusOr<CheckReply> first = service.Check(request);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first->epoch->sequence(), 1u);
    original_entities = first->group->entities.size();
    StatusOr<CheckReply> second = service.Check(request);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second->cache_hit);
  }

  // Same group name, different content: drop the last entity.
  std::vector<Group> changed = MakeTestPages(/*pages=*/1);
  changed[0].entities.pop_back();
  ReloadOutcome outcome =
      service.InstallCorpus(TestCorpusOf(std::move(changed)));
  EXPECT_EQ(outcome.sequence, 2u);
  EXPECT_EQ(outcome.groups, 1u);

  // The cached result is keyed on (engine, context, group content); the
  // group's content changed, so this MUST miss and recompute over the
  // new content — a stale hit would resurrect a deleted entity.
  CheckRequest request;
  request.group_name = "page_0";
  StatusOr<CheckReply> after = service.Check(request);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->cache_hit);
  EXPECT_EQ(after->epoch->sequence(), 2u);
  EXPECT_EQ(after->group->entities.size(), original_entities - 1);

  // Workers drop their epoch pin before answering, so once the epoch-1
  // replies above went out of scope nothing pinned epoch 1: the install
  // retired it.
  StatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.epoch_sequence, 2u);
  EXPECT_EQ(stats.epochs_installed, 2u);
  EXPECT_EQ(stats.epochs_retired, 1u);  // nothing pinned epoch 1 anymore
}

TEST(LiveCorpusTest, ReloadFromSnapshotSwapsToAPreparedEpoch) {
  const std::string path = ::testing::TempDir() + "/live_reload.snap";
  WriteTestSnapshot(MakeTestCorpus(/*pages=*/1), path);

  DimeService service(MakeTestCorpus(/*pages=*/1), ServiceOptions{});
  StatusOr<ReloadOutcome> outcome = service.ReloadFromSnapshot(path);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->sequence, 2u);
  EXPECT_TRUE(outcome->fingerprint_lo != 0 || outcome->fingerprint_hi != 0);

  CheckRequest request;
  request.group_name = "page_0";
  StatusOr<CheckReply> reply = service.Check(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->epoch->sequence(), 2u);
  // Snapshot epochs serve warm: the resident group came prepared off disk.
  EXPECT_NE(reply->epoch->ResidentOf(*reply->group), nullptr);

  // A reload that cannot load anything leaves the good epoch serving.
  StatusOr<ReloadOutcome> bad =
      service.ReloadFromSnapshot("/nonexistent/gone.snap");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.CurrentEpoch()->sequence(), 2u);
}

TEST(LiveCorpusTest, FingerprintWireHexRoundTrips) {
  const std::string hex = FingerprintToWireHex(0x0123456789abcdefULL,
                                               0xfedcba9876543210ULL);
  EXPECT_EQ(hex.size(), 32u);
  // High word first: the order log lines and dime_snapshot inspect print.
  EXPECT_EQ(hex, "fedcba9876543210" "0123456789abcdef");
  uint64_t lo = 0;
  uint64_t hi = 0;
  ASSERT_TRUE(FingerprintFromWireHex(hex, &lo, &hi));
  EXPECT_EQ(lo, 0x0123456789abcdefULL);
  EXPECT_EQ(hi, 0xfedcba9876543210ULL);
  // Everything that is not exactly 32 hex digits is refused.
  EXPECT_FALSE(FingerprintFromWireHex("", &lo, &hi));
  EXPECT_FALSE(FingerprintFromWireHex(hex.substr(1), &lo, &hi));
  EXPECT_FALSE(FingerprintFromWireHex(hex + "0", &lo, &hi));
  std::string garbled = hex;
  garbled[7] = 'g';
  EXPECT_FALSE(FingerprintFromWireHex(garbled, &lo, &hi));
}

TEST(LiveCorpusTest, FingerprintGatedReloadNoopsWhenAlreadyServing) {
  const std::string path = ::testing::TempDir() + "/gated_noop.snap";
  WriteTestSnapshot(MakeTestCorpus(/*pages=*/1), path);

  DimeService service(MakeTestCorpus(/*pages=*/2), ServiceOptions{});
  StatusOr<ReloadOutcome> first = service.ReloadFromSnapshot(path);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->sequence, 2u);
  EXPECT_FALSE(first->noop);
  const std::string serving_fp =
      FingerprintToWireHex(first->fingerprint_lo, first->fingerprint_hi);

  // The replica already serves the requested build: success without a
  // swap — the sequence does not advance and nothing is re-installed.
  StatusOr<ReloadOutcome> gated = service.ReloadFromSnapshot(path, serving_fp);
  ASSERT_TRUE(gated.ok()) << gated.status().ToString();
  EXPECT_TRUE(gated->noop);
  EXPECT_EQ(gated->sequence, 2u);
  EXPECT_EQ(gated->fingerprint_lo, first->fingerprint_lo);
  EXPECT_EQ(gated->fingerprint_hi, first->fingerprint_hi);
  EXPECT_EQ(service.CurrentEpoch()->sequence(), 2u);
  EXPECT_EQ(service.Stats().epochs_installed, 2u);
}

TEST(LiveCorpusTest, FingerprintGatedReloadRejectsAMismatchedSnapshot) {
  const std::string path = ::testing::TempDir() + "/gated_mismatch.snap";
  WriteTestSnapshot(MakeTestCorpus(/*pages=*/1), path);

  DimeService service(MakeTestCorpus(/*pages=*/2), ServiceOptions{});
  // A well-formed fingerprint that matches neither the serving epoch nor
  // the snapshot: the coordinator asked for a build this file is not.
  const std::string wrong_fp(32, '0');
  StatusOr<ReloadOutcome> gated = service.ReloadFromSnapshot(path, wrong_fp);
  ASSERT_FALSE(gated.ok());
  EXPECT_EQ(gated.status().code(), StatusCode::kInvalidArgument);
  // Nothing half-applied: the boot epoch keeps serving.
  EXPECT_EQ(service.CurrentEpoch()->sequence(), 1u);
  EXPECT_EQ(service.Stats().epochs_installed, 1u);

  // A malformed gate never even reaches the disk.
  StatusOr<ReloadOutcome> malformed =
      service.ReloadFromSnapshot(path, "not-a-fingerprint");
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.CurrentEpoch()->sequence(), 1u);
}

TEST(LiveCorpusTest, ApplyDeltaLogMergesAndServesMergedCorpus) {
  ServingCorpus corpus = MakeTestCorpus(/*pages=*/1);
  const Group& page = corpus.groups[0]->group();
  const size_t original_entities = page.entities.size();

  DeltaRecord add;
  add.op = DeltaRecord::Op::kAdd;
  add.group = "page_0";
  add.entity_id = "delta_added";
  add.values = page.entities[0].values;  // schema-conformant by copy
  DeltaRecord remove;
  remove.op = DeltaRecord::Op::kRemove;
  remove.group = "page_0";
  remove.entity_id = page.entities[1].id;

  const std::string path = ::testing::TempDir() + "/live_merge.dlog";
  std::remove(path.c_str());
  {
    StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append(add).ok());
    ASSERT_TRUE(writer->Append(remove).ok());
  }

  DimeService service(std::move(corpus), ServiceOptions{});
  StatusOr<ReloadOutcome> outcome = service.ApplyDeltaLog(path);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->sequence, 2u);
  EXPECT_EQ(outcome->delta_records, 2u);
  EXPECT_FALSE(outcome->torn_tail);

  CheckRequest request;
  request.group_name = "page_0";
  StatusOr<CheckReply> reply = service.Check(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->epoch->sequence(), 2u);
  EXPECT_EQ(reply->group->entities.size(), original_entities);  // +1 -1
  bool found_added = false, found_removed = false;
  for (const Entity& e : reply->group->entities) {
    if (e.id == "delta_added") found_added = true;
    if (e.id == remove.entity_id) found_removed = true;
  }
  EXPECT_TRUE(found_added);
  EXPECT_FALSE(found_removed);
  // The merged epoch was re-prepared in bulk — it serves warm like a
  // snapshot load, not via per-request PrepareGroup.
  EXPECT_NE(reply->epoch->ResidentOf(*reply->group), nullptr);
  EXPECT_EQ(service.Stats().delta_records_applied, 2u);
}

TEST(LiveCorpusTest, DeltaNamingUnknownGroupIsRefusedWholly) {
  DeltaRecord stray;
  stray.op = DeltaRecord::Op::kRemove;
  stray.group = "no_such_page";
  stray.entity_id = "whatever";
  const std::string path = ::testing::TempDir() + "/live_stray.dlog";
  std::remove(path.c_str());
  {
    StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(stray).ok());
  }

  DimeService service(MakeTestCorpus(/*pages=*/1), ServiceOptions{});
  StatusOr<ReloadOutcome> outcome = service.ApplyDeltaLog(path);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);
  // Nothing was installed: a half-applied log never becomes an epoch.
  EXPECT_EQ(service.CurrentEpoch()->sequence(), 1u);
  EXPECT_EQ(service.Stats().delta_records_applied, 0u);
}

TEST(LiveCorpusTest, CorruptDeltaLogDegradesToLastGoodEpoch) {
  ServingCorpus corpus = MakeTestCorpus(/*pages=*/1);
  DeltaRecord add;
  add.op = DeltaRecord::Op::kAdd;
  add.group = "page_0";
  add.entity_id = "never_lands";
  add.values = corpus.groups[0]->group().entities[0].values;
  const std::string path = ::testing::TempDir() + "/live_corrupt.dlog";
  std::remove(path.c_str());
  {
    StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(add).ok());
  }

  DimeService service(std::move(corpus), ServiceOptions{});
  {
    ScopedFailpoint corrupt(failpoints::kStoreDeltaCorrupt);
    StatusOr<ReloadOutcome> outcome = service.ApplyDeltaLog(path);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kDataLoss);
  }
  // Damaged acknowledged data refuses the merge; serving is untouched.
  EXPECT_EQ(service.CurrentEpoch()->sequence(), 1u);
  CheckRequest request;
  request.group_name = "page_0";
  StatusOr<CheckReply> reply = service.Check(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->epoch->sequence(), 1u);
  for (const Entity& e : reply->group->entities) {
    EXPECT_NE(e.id, "never_lands");
  }
  // The log itself is intact on disk (the corruption was injected at the
  // CRC check): disarmed, the same file applies cleanly.
  StatusOr<ReloadOutcome> retry = service.ApplyDeltaLog(path);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->sequence, 2u);
}

TEST(LiveCorpusTest, RotatingMergeMovesTheAppliedLogAside) {
  ServingCorpus corpus = MakeTestCorpus(/*pages=*/1);
  DeltaRecord add;
  add.op = DeltaRecord::Op::kAdd;
  add.group = "page_0";
  add.entity_id = "rotated_in";
  add.values = corpus.groups[0]->group().entities[0].values;

  const std::string path = ::testing::TempDir() + "/live_rotate.dlog";
  const std::string rotated = path + ".applied.2";
  std::remove(path.c_str());
  std::remove(rotated.c_str());
  {
    StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(add).ok());
  }

  DimeService service(std::move(corpus), ServiceOptions{});
  StatusOr<ReloadOutcome> outcome =
      service.ApplyDeltaLog(path, /*rotate_applied=*/true);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->sequence, 2u);
  EXPECT_EQ(outcome->delta_records, 1u);

  // The applied log was renamed to <path>.applied.<sequence>, whole;
  // nothing is left at the original path to merge twice.
  StatusOr<DeltaLogContents> applied = ReadDeltaLog(rotated);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->records.size(), 1u);
  StatusOr<DeltaLogContents> gone = ReadDeltaLog(path);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

TEST(LiveCorpusTest, RotatingMergeRetriesWhenAProducerAppendsMidMerge) {
  ServingCorpus corpus = MakeTestCorpus(/*pages=*/1);
  const std::vector<AttributeValue> values =
      corpus.groups[0]->group().entities[0].values;

  const std::string path = ::testing::TempDir() + "/live_race.dlog";
  const std::string rotated = path + ".applied.2";
  std::remove(path.c_str());
  std::remove(rotated.c_str());
  DeltaRecord first;
  first.op = DeltaRecord::Op::kAdd;
  first.group = "page_0";
  first.entity_id = "first";
  first.values = values;
  {
    StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(first).ok());
  }

  // The race the rotation protocol exists for: a producer lands a record
  // after the merge read the log but before it rotates. Without the
  // locked quiescence check, "late_arrival" would be rotated away
  // acknowledged-but-never-applied.
  ServiceOptions options;
  std::atomic<int> hook_fires{0};
  options.delta_merge_race_hook = [&] {
    if (hook_fires.fetch_add(1) != 0) return;  // interfere once
    StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    DeltaRecord late;
    late.op = DeltaRecord::Op::kAdd;
    late.group = "page_0";
    late.entity_id = "late_arrival";
    late.values = values;
    ASSERT_TRUE(writer->Append(late).ok());
  };

  DimeService service(std::move(corpus), options);
  StatusOr<ReloadOutcome> outcome =
      service.ApplyDeltaLog(path, /*rotate_applied=*/true);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // The first attempt was discarded (the log grew under it) and the
  // merge redone from the grown log: BOTH records made the epoch.
  EXPECT_EQ(hook_fires.load(), 2);
  EXPECT_EQ(outcome->sequence, 2u);
  EXPECT_EQ(outcome->delta_records, 2u);

  CheckRequest request;
  request.group_name = "page_0";
  StatusOr<CheckReply> reply = service.Check(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  bool found_first = false, found_late = false;
  for (const Entity& e : reply->group->entities) {
    if (e.id == "first") found_first = true;
    if (e.id == "late_arrival") found_late = true;
  }
  EXPECT_TRUE(found_first);
  EXPECT_TRUE(found_late);

  // Both records were rotated aside together; nothing re-applies.
  StatusOr<DeltaLogContents> applied = ReadDeltaLog(rotated);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->records.size(), 2u);
  StatusOr<DeltaLogContents> gone = ReadDeltaLog(path);
  EXPECT_FALSE(gone.ok());
}

/// Checks `name` on `service` and reports whether it was a cache hit.
bool CheckHits(DimeService& service, const std::string& name) {
  CheckRequest request;
  request.group_name = name;
  StatusOr<CheckReply> reply = service.Check(request);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  return reply.ok() && reply->cache_hit;
}

TEST(LiveCorpusTest, OntologyOnlyChangeMissesOnEveryGroup) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  for (const char* name : {"page_0", "page_1"}) {
    EXPECT_FALSE(CheckHits(service, name)) << name;
    EXPECT_TRUE(CheckHits(service, name)) << name;
  }

  // Same rules, same groups; one more venue in the ontology tree.
  Corpus changed = ScholarCorpusOf(MakeTestPages());
  auto tree = std::make_shared<Ontology>(*changed.context.ontologies[0].tree);
  tree->AddNode("An Extra Venue Of Nothing", 0);
  for (OntologyRef& ref : changed.context.ontologies) ref.tree = tree;
  service.InstallCorpus(PrepareCorpus(std::move(changed)));
  for (const char* name : {"page_0", "page_1"}) {
    EXPECT_FALSE(CheckHits(service, name)) << name;
  }
}

TEST(LiveCorpusTest, RulesOnlyChangeMissesOnEveryGroup) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  for (const char* name : {"page_0", "page_1"}) {
    EXPECT_FALSE(CheckHits(service, name)) << name;
    EXPECT_TRUE(CheckHits(service, name)) << name;
  }

  // Same groups and ontologies; one negative-rule threshold moved.
  Corpus changed = ScholarCorpusOf(MakeTestPages());
  ASSERT_TRUE(ParseNegativeRule(
      "overlap(Authors) <= 1 ^ ontology(Venue) <= 0.3", changed.schema,
      &changed.negative[1]));
  service.InstallCorpus(PrepareCorpus(std::move(changed)));
  for (const char* name : {"page_0", "page_1"}) {
    EXPECT_FALSE(CheckHits(service, name)) << name;
  }
}

TEST(LiveCorpusTest, DeltaMergeKeepsUntouchedGroupsCached) {
  ServingCorpus corpus = MakeTestCorpus();
  DeltaRecord remove;
  remove.op = DeltaRecord::Op::kRemove;
  remove.group = "page_0";
  remove.entity_id = corpus.groups[0]->group().entities[1].id;
  const std::string path = ::testing::TempDir() + "/live_keep_cache.dlog";
  std::remove(path.c_str());
  {
    StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append(remove).ok());
  }

  DimeService service(std::move(corpus), ServiceOptions{});
  for (const char* name : {"page_0", "page_1"}) {
    EXPECT_FALSE(CheckHits(service, name)) << name;
  }
  StatusOr<ReloadOutcome> outcome = service.ApplyDeltaLog(path);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->sequence, 2u);
  // The corpus was prepared when it was built, so even its first merge
  // prepares only the group the record names.
  EXPECT_EQ(outcome->groups_prepared, 1u);

  // page_0 was edited: it misses. page_1 was not: its entry from epoch 1
  // answers under epoch 2, and the answer equals a fresh engine run.
  EXPECT_FALSE(CheckHits(service, "page_0"));
  CheckRequest request;
  request.group_name = "page_1";
  StatusOr<CheckReply> cached = service.Check(request);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_TRUE(cached->cache_hit);
  EXPECT_EQ(cached->epoch->sequence(), 2u);
  request.bypass_cache = true;
  StatusOr<CheckReply> fresh = service.Check(request);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh->cache_hit);
  EXPECT_EQ(cached->result->partitions, fresh->result->partitions);
  EXPECT_EQ(cached->result->pivot, fresh->result->pivot);
  EXPECT_EQ(cached->result->flagged_by_prefix,
            fresh->result->flagged_by_prefix);
}

TEST(LiveCorpusTest, SnapshotAndTsvEpochsShareCacheKeys) {
  ServingCorpus tsv = MakeTestCorpus();
  const std::string path = ::testing::TempDir() + "/live_same_keys.snap";
  WriteTestSnapshot(tsv, path);
  StatusOr<LoadedSnapshot> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  DimeService warm(CorpusFromSnapshot(std::move(loaded).value()),
                   ServiceOptions{});
  DimeService cold(std::move(tsv), ServiceOptions{});

  // Same content, same rules and ontologies: the same keys, although the
  // epochs' own fingerprints differ (snapshot versus synthesized).
  std::shared_ptr<const CorpusEpoch> warm_epoch = warm.CurrentEpoch();
  std::shared_ptr<const CorpusEpoch> cold_epoch = cold.CurrentEpoch();
  EXPECT_EQ(warm_epoch->context_key(), cold_epoch->context_key());
  EXPECT_NE(warm_epoch->fingerprint_lo(), cold_epoch->fingerprint_lo());
  for (size_t i = 0; i < cold_epoch->corpus().groups.size(); ++i) {
    const Group& page = cold_epoch->corpus().groups[i]->group();
    EXPECT_EQ(warm.RequestFingerprint(EngineKind::kPlus, page),
              cold.RequestFingerprint(EngineKind::kPlus, page));
    const Group& warm_page = warm_epoch->corpus().groups[i]->group();
    EXPECT_EQ(warm.RequestFingerprint(EngineKind::kPlus, warm_page),
              cold.RequestFingerprint(EngineKind::kPlus, page));
  }

  // So a reload from the snapshot keeps the TSV epoch's entries hitting.
  EXPECT_FALSE(CheckHits(cold, "page_0"));
  StatusOr<ReloadOutcome> reloaded = cold.ReloadFromSnapshot(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->sequence, 2u);
  EXPECT_TRUE(CheckHits(cold, "page_0"));
  EXPECT_FALSE(CheckHits(cold, "page_1"));
}

// Delta merges share what they did not touch (service.h, ApplyDeltaLog).

/// Replaces the delta log at `path` with `records`.
void WriteDeltaLog(const std::string& path,
                   const std::vector<DeltaRecord>& records) {
  std::remove(path.c_str());
  StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const DeltaRecord& record : records) {
    ASSERT_TRUE(writer->Append(record).ok());
  }
}

/// An edit of `page`'s entity `index` to the values of entity `index + 1`.
DeltaRecord EditOf(const Group& page, size_t index) {
  DeltaRecord edit;
  edit.op = DeltaRecord::Op::kEdit;
  edit.group = page.name;
  edit.entity_id = page.entities[index].id;
  edit.values = page.entities[index + 1].values;
  return edit;
}

TEST(LiveCorpusTest, DeltaMergeSharesUntouchedGroupsWithItsBase) {
  constexpr size_t kPages = 4;
  const std::string snap = ::testing::TempDir() + "/live_share.snap";
  WriteTestSnapshot(MakeTestCorpus(kPages), snap);
  StatusOr<LoadedSnapshot> loaded = LoadSnapshot(snap);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  DimeService service(CorpusFromSnapshot(std::move(loaded).value()),
                      ServiceOptions{});
  std::shared_ptr<const CorpusEpoch> base = service.CurrentEpoch();

  const std::string log = ::testing::TempDir() + "/live_share.dlog";
  WriteDeltaLog(log, {EditOf(*base->FindGroup("page_0"), 0)});
  StatusOr<ReloadOutcome> outcome = service.ApplyDeltaLog(log);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->delta_records, 1u);
  EXPECT_EQ(outcome->groups_prepared, 1u);

  std::shared_ptr<const CorpusEpoch> merged = service.CurrentEpoch();
  ASSERT_EQ(merged->sequence(), 2u);
  ASSERT_EQ(merged->corpus().groups.size(), kPages);
  // The edited group is a new, re-prepared group...
  const Group* edited = merged->FindGroup("page_0");
  EXPECT_NE(edited, base->FindGroup("page_0"));
  EXPECT_NE(merged->ResidentOf(*edited), nullptr);
  EXPECT_NE(merged->GroupKey(*edited),
            base->GroupKey(*base->FindGroup("page_0")));
  // ...and every other one is the base's own, still borrowing the
  // snapshot's rank arenas.
  for (size_t i = 1; i < kPages; ++i) {
    const std::string name = "page_" + std::to_string(i);
    const Group* group = merged->FindGroup(name);
    EXPECT_EQ(group, base->FindGroup(name)) << name;
    const ResidentGroup* resident = merged->ResidentOf(*group);
    ASSERT_NE(resident, nullptr) << name;
    EXPECT_EQ(resident, base->ResidentOf(*base->FindGroup(name))) << name;
    bool borrowed = false;
    for (const PreparedAttr& attr : resident->prepared().attrs) {
      borrowed = borrowed || attr.value_ranks.borrowed();
    }
    EXPECT_TRUE(borrowed) << name;
  }
  // Same rules and ontologies: the context key carries over.
  EXPECT_EQ(merged->context_key(), base->context_key());
  EXPECT_EQ(merged->rules_text(), base->rules_text());
}

TEST(LiveCorpusTest, RandomDeltaMergesMatchAFullRePrepare) {
  constexpr size_t kPages = 4;
  constexpr int kMerges = 30;
  std::vector<Group> model = MakeTestPages(kPages);
  const std::string snap = ::testing::TempDir() + "/live_random.snap";
  WriteTestSnapshot(TestCorpusOf(model), snap);
  StatusOr<LoadedSnapshot> loaded = LoadSnapshot(snap);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  DimeService service(CorpusFromSnapshot(std::move(loaded).value()),
                      ServiceOptions{});
  DimeService reference(MakeTestCorpus(1), ServiceOptions{});
  const std::string log = ::testing::TempDir() + "/live_random.dlog";

  std::mt19937_64 rng(0x5eed17);
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng() % static_cast<uint64_t>(n));
  };
  auto holds = [&model](const DeltaRecord& record) {
    for (const Group& page : model) {
      if (page.name != record.group) continue;
      for (const Entity& entity : page.entities) {
        if (entity.id == record.entity_id) return true;
      }
    }
    return false;
  };
  int fresh_ids = 0;
  int re_adds = 0;
  int edits_back = 0;
  std::optional<DeltaRecord> re_add;     // undoes a remove, next merge
  std::optional<DeltaRecord> edit_back;  // undoes an edit, next merge
  for (int merge = 0; merge < kMerges; ++merge) {
    std::vector<DeltaRecord> records;
    // Applies `record` to the model and queues it for this merge's log.
    auto emit = [&](DeltaRecord record) {
      for (Group& page : model) {
        if (page.name != record.group) continue;
        ASSERT_TRUE(ApplyDeltaRecords({record}, &page).ok());
      }
      records.push_back(std::move(record));
    };
    if (re_add && !holds(*re_add)) {
      emit(*re_add);
      ++re_adds;
    }
    if (edit_back && holds(*edit_back)) {
      emit(*edit_back);
      ++edits_back;
    }
    re_add.reset();
    edit_back.reset();

    for (size_t r = 1 + pick(3); r > 0; --r) {
      const Group& page = model[pick(kPages)];
      const Entity& target = page.entities[pick(page.entities.size())];
      const Entity& donor = page.entities[pick(page.entities.size())];
      DeltaRecord record{DeltaRecord::Op::kEdit, page.name, target.id,
                         donor.values};
      switch (pick(3)) {
        case 0:
          record.op = DeltaRecord::Op::kAdd;
          record.entity_id = "fresh_" + std::to_string(fresh_ids++);
          break;
        case 1:
          record.op = DeltaRecord::Op::kRemove;
          record.values.clear();
          if (!re_add) {
            re_add = DeltaRecord{DeltaRecord::Op::kAdd, page.name, target.id,
                                 target.values};
          }
          break;
        default:
          if (!edit_back) {
            edit_back = DeltaRecord{DeltaRecord::Op::kEdit, page.name,
                                    target.id, target.values};
          }
          break;
      }
      emit(std::move(record));
    }

    WriteDeltaLog(log, records);
    StatusOr<ReloadOutcome> outcome = service.ApplyDeltaLog(log);
    ASSERT_TRUE(outcome.ok()) << "merge " << merge << ": "
                              << outcome.status().ToString();
    reference.InstallCorpus(TestCorpusOf(model));

    std::shared_ptr<const CorpusEpoch> epoch = service.CurrentEpoch();
    for (const Group& page : model) {
      const Group* served = epoch->FindGroup(page.name);
      ASSERT_NE(served, nullptr);
      EXPECT_EQ(GroupContentKey(*served), GroupContentKey(page))
          << "merge " << merge << " " << page.name;
      CheckRequest request;
      request.group_name = page.name;
      request.bypass_cache = true;
      StatusOr<CheckReply> got = service.Check(request);
      StatusOr<CheckReply> want = reference.Check(request);
      ASSERT_TRUE(got.ok() && want.ok()) << page.name;
      EXPECT_EQ(got->result->partitions, want->result->partitions)
          << "merge " << merge << " " << page.name;
      EXPECT_EQ(got->result->pivot, want->result->pivot)
          << "merge " << merge << " " << page.name;
      EXPECT_EQ(got->result->flagged_by_prefix,
                want->result->flagged_by_prefix)
          << "merge " << merge << " " << page.name;
    }
  }
  // The stream covered the two round trips that lead back to content a
  // base epoch already held.
  EXPECT_GT(re_adds, 0);
  EXPECT_GT(edits_back, 0);
}

TEST(LiveCorpusTest, DeltaMergesChainNoEpochsAndReleaseTheMapping) {
  constexpr size_t kPages = 3;
  constexpr int kMerges = 20;
  const std::string snap = ::testing::TempDir() + "/live_chain.snap";
  WriteTestSnapshot(MakeTestCorpus(kPages), snap);
  StatusOr<LoadedSnapshot> loaded = LoadSnapshot(snap);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::weak_ptr<const void> mapping = loaded->backing;
  DimeService service(CorpusFromSnapshot(std::move(loaded).value()),
                      ServiceOptions{});

  // Twenty merges, each editing page_0 alone, with no pin held between
  // them: every superseded epoch retires at once, because the merged
  // epoch shares groups with its base but never holds the base itself.
  const std::string log = ::testing::TempDir() + "/live_chain.dlog";
  for (int merge = 0; merge < kMerges; ++merge) {
    WriteDeltaLog(log, {EditOf(*service.CurrentEpoch()->FindGroup("page_0"),
                               static_cast<size_t>(merge))});
    StatusOr<ReloadOutcome> outcome = service.ApplyDeltaLog(log);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->groups_prepared, 1u);
  }
  StatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.epochs_installed, static_cast<uint64_t>(kMerges) + 1);
  EXPECT_EQ(stats.epochs_retired, stats.epochs_installed - 1);
  // page_1 and page_2 are still the snapshot's, so the mapping stays.
  EXPECT_FALSE(mapping.expired());

  // Once a merge has replaced every group the mapping backed, nothing
  // borrows from it any more and it is released.
  std::shared_ptr<const CorpusEpoch> epoch = service.CurrentEpoch();
  WriteDeltaLog(log, {EditOf(*epoch->FindGroup("page_1"), 0),
                      EditOf(*epoch->FindGroup("page_2"), 0)});
  epoch.reset();
  StatusOr<ReloadOutcome> outcome = service.ApplyDeltaLog(log);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->groups_prepared, 2u);
  EXPECT_TRUE(mapping.expired());
}

/// The golden differential the live-corpus design rests on: a merged
/// epoch must decide exactly like Algorithm 1 run from scratch on the
/// merged group, at the bench scale the snapshot presets pin
/// (scholar-2999).
TEST(LiveCorpusTest, GoldenDifferentialMergedEpochEqualsBatchOnScholar2999) {
  StatusOr<Corpus> preset = MakePresetCorpus("scholar-2999");
  ASSERT_TRUE(preset.ok()) << preset.status().ToString();
  Group full = std::move(preset->groups[0]);
  full.truth.clear();  // deltas have no ground truth channel

  // Base = the snapshot generation; the delta log carries the 10 entities
  // that "arrived since", one remove and one edit.
  constexpr size_t kArrivals = 10;
  Group base = full;
  base.entities.resize(full.size() - kArrivals);
  std::vector<DeltaRecord> records;
  for (size_t i = full.size() - kArrivals; i < full.size(); ++i) {
    DeltaRecord add;
    add.op = DeltaRecord::Op::kAdd;
    add.group = full.name;
    add.entity_id = full.entities[i].id;
    add.values = full.entities[i].values;
    records.push_back(std::move(add));
  }
  DeltaRecord remove;
  remove.op = DeltaRecord::Op::kRemove;
  remove.group = full.name;
  remove.entity_id = full.entities[3].id;
  records.push_back(remove);
  DeltaRecord edit;
  edit.op = DeltaRecord::Op::kEdit;
  edit.group = full.name;
  edit.entity_id = full.entities[5].id;
  edit.values = full.entities[5].values;
  edit.values[0] = {"Completely Different Author"};
  records.push_back(edit);

  Group merged = base;
  ASSERT_TRUE(ApplyDeltaRecords(records, &merged).ok());
  ASSERT_EQ(merged.size(), full.size() - 1);  // 10 adds, 1 remove

  const std::string log = ::testing::TempDir() + "/live_golden.dlog";
  WriteDeltaLog(log, records);
  DimeService service(TestCorpusOf({base}), ServiceOptions{});
  StatusOr<ReloadOutcome> outcome = service.ApplyDeltaLog(log);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->delta_records, records.size());

  CheckRequest request;
  request.group_name = full.name;
  StatusOr<CheckReply> reply = service.Check(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->result->status.ok()) << reply->result->status.ToString();
  ASSERT_EQ(reply->group->size(), merged.size());
  for (size_t e = 0; e < merged.size(); ++e) {
    ASSERT_EQ(reply->group->entities[e].id, merged.entities[e].id) << e;
  }

  const ServingCorpus& corpus = reply->epoch->corpus();
  DimeResult batch =
      RunDime(merged, corpus.positive, corpus.negative, corpus.context);
  EXPECT_EQ(reply->result->partitions, batch.partitions);
  EXPECT_EQ(reply->result->pivot, batch.pivot);
  EXPECT_EQ(reply->result->flagged_by_prefix, batch.flagged_by_prefix);
}

}  // namespace
}  // namespace dime
