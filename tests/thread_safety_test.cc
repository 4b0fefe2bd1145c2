#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/core/dime_plus.h"
#include "src/core/preprocess.h"
#include "src/datagen/dbgen_gen.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/exec/sharded_dime.h"
#include "src/index/striped_union_find.h"
#include "src/index/union_find.h"
#include "src/server/service.h"

/// \file thread_safety_test.cc
/// Concurrency stress for the parallel engines and the service that runs
/// them: RunDimePlusSharded hammered while another thread arms/disarms
/// failpoints, expires deadlines, and flips cancellation tokens, and
/// DimeService taking concurrent checks under deadline faults and on its
/// shared engine pool. The
/// assertions are the engine output contract (status coded, flagged ⊆
/// group, scrollbar monotone); the real payoff is running this binary
/// under TSan (build with -DDIME_SANITIZE=thread, or just
/// `tools/analyze.sh --tsan`), where any lock-discipline slip in
/// WorkerFailures, the service's queue and counters, the failpoint
/// registry, or the log sink becomes a hard failure.
///
/// Labeled `tsan_heavy` in tests/CMakeLists.txt: quick loops may skip it
/// with `ctest -LE tsan_heavy`; the TSan CI leg always runs it.

namespace dime {
namespace {

bool IsExpectedEngineStatus(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

/// The release-build version of the engine invariants (DcheckResult-
/// Invariants is compiled out under NDEBUG, so the stress re-checks).
void ExpectResultContract(const DimeResult& r, size_t group_size,
                          size_t num_rules) {
  EXPECT_TRUE(IsExpectedEngineStatus(r.status)) << r.status.ToString();
  ASSERT_EQ(r.flagged_by_prefix.size(), num_rules);
  const std::vector<int>* prev = nullptr;
  for (const std::vector<int>& flagged : r.flagged_by_prefix) {
    EXPECT_TRUE(std::is_sorted(flagged.begin(), flagged.end()));
    for (int e : flagged) {
      EXPECT_GE(e, 0);
      EXPECT_LT(static_cast<size_t>(e), group_size);
    }
    if (prev != nullptr) {
      EXPECT_TRUE(std::includes(flagged.begin(), flagged.end(),
                                prev->begin(), prev->end()))
          << "scrollbar prefix lost entities";
    }
    prev = &flagged;
  }
}

class ThreadSafetyTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjection::DisarmAll(); }
};

TEST_F(ThreadSafetyTest, ParallelEngineUnderFailpointAndDeadlineChurn) {
  ScholarSetup setup = MakeScholarSetup();
  ScholarGenOptions gen;
  gen.num_correct = 40;
  gen.seed = 77;
  Group group = GenerateScholarGroup("Chaos Owner", gen);
  PreparedGroup pg =
      PrepareGroup(group, setup.positive, setup.negative, setup.context);

  std::atomic<bool> done{false};
  // Chaos thread: continuously re-arms worker faults and injected
  // deadline pressure with varying skip counts, so expiry lands in step 1
  // on some iterations and step 3 on others, racing engine fan-outs.
  std::thread chaos([&]() {
    int round = 0;
    while (!done.load(std::memory_order_relaxed)) {
      FaultInjection::Arm(failpoints::kWorkerFault, /*count=*/1,
                          /*skip=*/round % 5);
      FaultInjection::Arm(failpoints::kEngineDeadline, /*count=*/1,
                          /*skip=*/(round * 3) % 17);
      std::this_thread::yield();
      FaultInjection::Disarm(failpoints::kWorkerFault);
      FaultInjection::Disarm(failpoints::kEngineDeadline);
      ++round;
    }
  });

  for (int iter = 0; iter < 150; ++iter) {
    exec::ShardedOptions options;
    options.num_threads = 4;
    CancellationToken token;
    RunControl control;
    control.cancel = &token;
    if (iter % 3 == 0) {
      control.deadline = Deadline::AfterMillis(iter % 2);
    }
    std::thread canceller;
    if (iter % 4 == 0) {
      canceller = std::thread([&token]() { token.Cancel(); });
    }
    DimeResult r = exec::RunDimePlusSharded(pg, setup.positive,
                                            setup.negative, options, control);
    if (canceller.joinable()) canceller.join();
    ExpectResultContract(r, pg.size(), setup.negative.size());
  }
  done.store(true, std::memory_order_relaxed);
  chaos.join();
}

TEST_F(ThreadSafetyTest, CorpusUnderConcurrentCancellationAndFaults) {
  // The serving topology: client threads send concurrent inline-group
  // checks through DimeService's worker pool while injected deadline
  // faults and 1 ms request deadlines cut engine runs short. Engines
  // alternate naive / plus across requests.
  ScholarSetup setup = MakeScholarSetup();
  std::vector<Group> groups;
  for (int i = 0; i < 12; ++i) {
    ScholarGenOptions gen;
    gen.num_correct = 25;
    gen.seed = 500 + i;
    groups.push_back(
        GenerateScholarGroup("Stress Owner " + std::to_string(i), gen));
  }
  ServingCorpus corpus;
  corpus.schema = setup.schema;
  corpus.positive = setup.positive;
  corpus.negative = setup.negative;
  corpus.context = setup.context;
  ServiceOptions service_options;
  service_options.num_workers = 4;
  DimeService service(std::move(corpus), service_options);

  constexpr EngineKind kEngines[] = {EngineKind::kNaive, EngineKind::kPlus};
  constexpr size_t kClients = 4;
  size_t truncated = 0;
  for (int iter = 0; iter < 25; ++iter) {
    // Fault a bounded number of engine runs mid-round.
    FaultInjection::Arm(failpoints::kEngineDeadline, /*count=*/2,
                        /*skip=*/iter % 7);
    std::vector<StatusOr<CheckReply>> replies(
        groups.size(), Status(StatusCode::kInternal, "not sent"));
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c]() {
        for (size_t g = c; g < groups.size(); g += kClients) {
          CheckRequest request;
          request.group = &groups[g];
          request.engine = kEngines[(iter + g) % 2];
          request.bypass_cache = true;
          if (iter % 3 == 1) request.deadline_ms = 1;
          replies[g] = service.Check(request);
        }
      });
    }
    for (std::thread& client : clients) client.join();
    FaultInjection::DisarmAll();

    for (size_t g = 0; g < groups.size(); ++g) {
      ASSERT_TRUE(replies[g].ok()) << replies[g].status().ToString();
      // Gated and engine-run requests alike carry one prefix per rule.
      ExpectResultContract(*replies[g]->result, groups[g].size(),
                           setup.negative.size());
      if (!replies[g]->result->ok()) ++truncated;
    }
  }
  // The injected faults did cut runs short: the stress is not vacuous.
  EXPECT_GT(truncated, 0u);
}

TEST_F(ThreadSafetyTest, ServicePooledRouteUnderConcurrentChecks) {
  // A group at the size from which "plus" runs on the service's shared
  // engine pool: concurrent clients check it through DimeService, their
  // task groups interleaving on the same executors, and every reply
  // equals RunDimePlus on one executor.
  DbgenOptions gen;
  gen.num_entities = kPrepareChunkEntities;
  gen.seed = 21;
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
  options.num_workers = 3;
  options.engine_threads = 4;
  DimeService service(std::move(corpus), options);

  constexpr size_t kClients = 3;
  std::vector<StatusOr<CheckReply>> replies(
      kClients, Status(StatusCode::kInternal, "not sent"));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      CheckRequest request;
      request.group = &group;
      request.engine = EngineKind::kPlus;
      request.bypass_cache = true;
      replies[c] = service.Check(request);
    });
  }
  for (std::thread& client : clients) client.join();
  for (const StatusOr<CheckReply>& reply : replies) {
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    const DimeResult& got = *reply->result;
    ASSERT_TRUE(got.ok()) << got.status.ToString();
    EXPECT_EQ(got.partitions, expected.partitions);
    EXPECT_EQ(got.pivot, expected.pivot);
    EXPECT_EQ(got.first_flagging_rule, expected.first_flagging_rule);
    EXPECT_EQ(got.flagged_by_prefix, expected.flagged_by_prefix);
  }
}

TEST_F(ThreadSafetyTest, FailpointRegistryArmDisarmChurn) {
  // The fast path (acquire load) races Arm/Disarm (mutex + release store)
  // from many threads; under TSan this validates the memory-order pairing
  // documented in fault_injection.cc. Trigger accounting stays exact: the
  // registry never fires more times than it was armed for.
  constexpr int kHammers = 6;
  constexpr int kRounds = 400;
  std::atomic<bool> done{false};
  std::atomic<long> fired{0};
  std::vector<std::thread> hammers;
  hammers.reserve(kHammers);
  for (int t = 0; t < kHammers; ++t) {
    hammers.emplace_back([&]() {
      while (!done.load(std::memory_order_relaxed)) {
        if (DIME_FAULT_POINT(failpoints::kStressChurn)) {
          fired.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  long armed_total = 0;
  for (int round = 0; round < kRounds; ++round) {
    int count = 1 + round % 3;
    FaultInjection::Arm(failpoints::kStressChurn, count);
    armed_total += count;
    std::this_thread::yield();
    FaultInjection::Disarm(failpoints::kStressChurn);
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& h : hammers) h.join();
  EXPECT_LE(fired.load(), armed_total);
  EXPECT_EQ(FaultInjection::Remaining(failpoints::kStressChurn), 0);
}

TEST_F(ThreadSafetyTest, StripedUnionFindConcurrentUnionsMatchSerial) {
  // Many threads union a shared edge list in racing interleavings (each
  // thread a different stride and direction), with concurrent Connected
  // probes in flight. Once quiescent, Components() must equal the serial
  // UnionFind fed the same edges — the closure is schedule-independent.
  // Under TSan this is the lock-discipline check for the stripe locks and
  // the path-halving CAS.
  constexpr int kEntities = 2000;
  constexpr int kEdges = 6000;
  constexpr int kThreads = 8;
  Random rng(4242);
  std::vector<std::pair<int, int>> edges;
  edges.reserve(kEdges);
  for (int i = 0; i < kEdges; ++i) {
    edges.emplace_back(static_cast<int>(rng.Uniform(kEntities)),
                       static_cast<int>(rng.Uniform(kEntities)));
  }
  UnionFind serial(kEntities);
  for (const auto& [a, b] : edges) serial.Union(a, b);
  const auto expected = serial.Components();

  for (size_t stripes : {1u, 8u, 64u}) {
    StripedUnionFind striped(kEntities, stripes);
    std::atomic<size_t> linked{0};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t]() {
        size_t local_linked = 0;
        for (int i = 0; i < kEdges; ++i) {
          // Thread t starts at a different offset; odd threads walk the
          // list backwards, maximizing conflicting root pairs.
          int k = (t % 2 == 0) ? (i + t * 997) % kEdges
                               : (kEdges - 1 - i + t * 997) % kEdges;
          if (striped.Union(edges[k].first, edges[k].second)) {
            ++local_linked;
          }
          // Probe under churn for TSan coverage. A false may be stale
          // (concurrent unions move roots), so only a true is checkable —
          // and only against the final closure, below.
          (void)striped.Connected(  // lint: unchecked-status-ok(TSan probe; stale false is legal under churn)
              edges[k].first, edges[k].second);
        }
        linked.fetch_add(local_linked, std::memory_order_relaxed);
      });
    }
    for (std::thread& w : workers) w.join();
    // Exactly n - #components edges linked, no matter who won each race.
    EXPECT_EQ(linked.load(), kEntities - expected.size())
        << "stripes=" << stripes;
    EXPECT_EQ(striped.Components(), expected) << "stripes=" << stripes;
  }
}

TEST_F(ThreadSafetyTest, ShardedEngineUnderFailpointAndDeadlineChurn) {
  // The chaos above plus task-runner faults (exec/task-fault) and a
  // shared borrowed pool — the serving topology. The output
  // contract must hold for every interleaving.
  ScholarSetup setup = MakeScholarSetup();
  ScholarGenOptions gen;
  gen.num_correct = 40;
  gen.seed = 177;
  Group group = GenerateScholarGroup("Sharded Chaos Owner", gen);
  PreparedGroup pg =
      PrepareGroup(group, setup.positive, setup.negative, setup.context);

  exec::WorkStealingPool pool(exec::PoolOptions{4});
  std::atomic<bool> done{false};
  std::thread chaos([&]() {
    int round = 0;
    while (!done.load(std::memory_order_relaxed)) {
      FaultInjection::Arm(failpoints::kWorkerFault, /*count=*/1,
                          /*skip=*/round % 5);
      FaultInjection::Arm(failpoints::kExecTaskFault, /*count=*/1,
                          /*skip=*/(round * 5) % 23);
      FaultInjection::Arm(failpoints::kEngineDeadline, /*count=*/1,
                          /*skip=*/(round * 3) % 17);
      std::this_thread::yield();
      FaultInjection::Disarm(failpoints::kWorkerFault);
      FaultInjection::Disarm(failpoints::kExecTaskFault);
      FaultInjection::Disarm(failpoints::kEngineDeadline);
      ++round;
    }
  });

  for (int iter = 0; iter < 100; ++iter) {
    exec::ShardedOptions options;
    if (iter % 3 != 0) options.pool = &pool;  // else a private pool
    CancellationToken token;
    RunControl control;
    control.cancel = &token;
    if (iter % 3 == 0) {
      control.deadline = Deadline::AfterMillis(iter % 2);
    }
    std::thread canceller;
    if (iter % 4 == 0) {
      canceller = std::thread([&token]() { token.Cancel(); });
    }
    DimeResult r = exec::RunDimePlusSharded(pg, setup.positive,
                                            setup.negative, options, control);
    if (canceller.joinable()) canceller.join();
    ExpectResultContract(r, pg.size(), setup.negative.size());
  }
  done.store(true, std::memory_order_relaxed);
  chaos.join();
}

TEST_F(ThreadSafetyTest, ConcurrentLogLinesNeverInterleave) {
  std::ostringstream captured;
  std::ostream* previous = SetLogStream(&captured);
  constexpr int kThreads = 6;
  constexpr int kLines = 80;
  {
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([t]() {
        for (int i = 0; i < kLines; ++i) {
          DIME_LOG(WARNING) << "writer=" << t << " line=" << i << " end";
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }
  SetLogStream(previous);

  // Every captured line must be whole: mutex-guarded sink means no
  // character-level interleaving between threads.
  std::istringstream in(captured.str());
  std::string line;
  int well_formed = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.rfind("[WARNING ", 0), 0) << "mangled line: " << line;
    EXPECT_NE(line.find("writer="), std::string::npos);
    EXPECT_EQ(line.substr(line.size() - 4), " end") << line;
    ++well_formed;
  }
  EXPECT_EQ(well_formed, kThreads * kLines);
}

}  // namespace
}  // namespace dime
