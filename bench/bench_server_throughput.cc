// Serving-layer throughput (google-benchmark): end-to-end DimeService
// checks through the real admission queue and worker pool, at worker
// counts {1, 4, 8}. Three request mixes:
//   * BM_ServerCheckMiss   — every request is a distinct group (cache off
//                            the table): measures queue + engine cost;
//   * BM_ServerCheckHit    — every request repeats one group: measures
//                            the cache-hit fast path (no worker hop);
//   * BM_ServerMixedLoad   — a rotation over a small page set with the
//                            cache on, the steady-state serving shape.
// Same JSON output shape as the other benches: run with
//   --benchmark_format=json
// to get machine-readable rows (counters: requests/sec via items/sec).
//
// Alternatively, `--json <out.json>` switches to a closed-loop
// measurement that emits rows in the tools/loadgen schema (label,
// transport, mix, connections, inflight, threads, duration_s, requests,
// qps, p50_ms/p95_ms/p99_ms, errors, transport_errors) with
// transport="inproc" — the no-socket ceiling the socket transports in
// BENCH_server.json are compared against. Optional companions:
// --duration-s S, --threads N, --label L.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/server/service.h"
#include "src/server/wire.h"

namespace dime {
namespace {

/// Scholar preset + `pages` generated pages (page_0..), sized small so a
/// single check costs ~a few hundred microseconds and the bench exercises
/// the serving machinery rather than the engine interior.
ServingCorpus MakeBenchCorpus(size_t pages) {
  ScholarSetup setup = MakeScholarSetup();
  ServingCorpus corpus;
  corpus.schema = setup.schema;
  corpus.positive = std::move(setup.positive);
  corpus.negative = std::move(setup.negative);
  corpus.context = setup.context;
  corpus.owned_trees.push_back(std::move(setup.venue_tree));
  for (size_t i = 0; i < pages; ++i) {
    ScholarGenOptions gen;
    gen.num_correct = 60;
    gen.seed = 9000 + i * 31;
    Group page = GenerateScholarGroup("Bench Owner " + std::to_string(i), gen);
    page.name = "page_" + std::to_string(i);
    corpus.AddGroup(std::move(page));
  }
  return corpus;
}

std::unique_ptr<DimeService> MakeService(unsigned workers, size_t pages,
                                         size_t cache_capacity) {
  ServiceOptions options;
  options.num_workers = workers;
  options.queue_capacity = 256;  // headroom: measure service, not shedding
  options.cache_capacity = cache_capacity;
  return std::make_unique<DimeService>(MakeBenchCorpus(pages), options);
}

/// Every iteration checks a different page with the cache bypassed: the
/// engines always run, so this is the queue + worker-pool + engine cost.
void BM_ServerCheckMiss(benchmark::State& state) {
  const unsigned workers = static_cast<unsigned>(state.range(0));
  constexpr size_t kPages = 8;
  auto service = MakeService(workers, kPages, /*cache_capacity=*/0);
  size_t next = 0;
  for (auto _ : state) {
    CheckRequest request;
    request.group_name = "page_" + std::to_string(next++ % kPages);
    request.bypass_cache = true;
    auto reply = service->Check(request);
    if (!reply.ok() || !reply->result->status.ok()) {
      state.SkipWithError("check failed");
      break;
    }
    benchmark::DoNotOptimize(reply->result->flagged().size());
  }
  state.SetItemsProcessed(state.iterations());
  service->Shutdown();
}
BENCHMARK(BM_ServerCheckMiss)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

/// Every iteration repeats the same group: after the first miss all
/// requests are answered from the LRU cache without touching the queue.
void BM_ServerCheckHit(benchmark::State& state) {
  const unsigned workers = static_cast<unsigned>(state.range(0));
  auto service = MakeService(workers, /*pages=*/1, /*cache_capacity=*/16);
  CheckRequest request;
  request.group_name = "page_0";
  // Warm the cache outside the timed region.
  auto warm = service->Check(request);
  if (!warm.ok()) {
    state.SkipWithError("warm-up check failed");
    return;
  }
  for (auto _ : state) {
    auto reply = service->Check(request);
    benchmark::DoNotOptimize(reply.ok() && reply->cache_hit);
  }
  state.SetItemsProcessed(state.iterations());
  service->Shutdown();
}
BENCHMARK(BM_ServerCheckHit)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

/// Steady-state mix: rotate over a page set larger than one but smaller
/// than the cache, so the first lap misses and later laps hit.
void BM_ServerMixedLoad(benchmark::State& state) {
  const unsigned workers = static_cast<unsigned>(state.range(0));
  constexpr size_t kPages = 4;
  auto service = MakeService(workers, kPages, /*cache_capacity=*/16);
  size_t next = 0;
  for (auto _ : state) {
    CheckRequest request;
    request.group_name = "page_" + std::to_string(next++ % kPages);
    auto reply = service->Check(request);
    if (!reply.ok()) {
      state.SkipWithError("check failed");
      break;
    }
    benchmark::DoNotOptimize(reply->cache_hit);
  }
  state.SetItemsProcessed(state.iterations());
  StatsSnapshot stats = service->Stats();
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(stats.cache_hits));
  state.counters["cache_misses"] =
      benchmark::Counter(static_cast<double>(stats.cache_misses));
  service->Shutdown();
}
BENCHMARK(BM_ServerMixedLoad)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// --json mode: closed-loop rows in the tools/loadgen schema.

/// Log-2 latency buckets, the same resolution (and therefore the same
/// "bucket upper bound" percentile semantics) as tools/loadgen — rows
/// from the two tools must be comparable, not merely similar.
constexpr int kLatencyBuckets = 40;

struct LoadgenStats {
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t buckets[kLatencyBuckets] = {};

  void Record(uint64_t micros, bool ok) {
    ++requests;
    if (!ok) ++errors;
    int bucket = 0;
    while (bucket < kLatencyBuckets - 1 && (1ULL << bucket) <= micros) {
      ++bucket;
    }
    ++buckets[bucket];
  }

  void Merge(const LoadgenStats& other) {
    requests += other.requests;
    errors += other.errors;
    for (int i = 0; i < kLatencyBuckets; ++i) buckets[i] += other.buckets[i];
  }

  double PercentileMs(double q) const {
    uint64_t total = 0;
    for (uint64_t b : buckets) total += b;
    if (total == 0) return 0.0;
    uint64_t target = static_cast<uint64_t>(q * static_cast<double>(total));
    if (target == 0) target = 1;
    uint64_t seen = 0;
    for (int i = 0; i < kLatencyBuckets; ++i) {
      seen += buckets[i];
      if (seen >= target) return static_cast<double>(1ULL << i) / 1000.0;
    }
    return static_cast<double>(1ULL << (kLatencyBuckets - 1)) / 1000.0;
  }
};

/// One closed-loop row: `threads` callers issue synchronous Check()s
/// against an in-process service for `duration_s`. No sockets — this is
/// the serving-core ceiling the transports are judged against.
std::string ClosedLoopRow(const std::string& label, const std::string& mix,
                          int threads, double duration_s) {
  constexpr size_t kPages = 4;
  const bool hit = mix == "hit";
  auto service = MakeService(/*workers=*/8, hit ? 1 : kPages,
                             /*cache_capacity=*/hit ? 16 : 0);
  if (hit) {
    CheckRequest warm;
    warm.group_name = "page_0";
    auto warmed = service->Check(warm);
    if (!warmed.ok()) return "";
  }
  std::vector<LoadgenStats> per_thread(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(duration_s);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      LoadgenStats& stats = per_thread[static_cast<size_t>(t)];
      size_t next = static_cast<size_t>(t);
      while (std::chrono::steady_clock::now() < deadline) {
        CheckRequest request;
        request.group_name =
            hit ? "page_0" : "page_" + std::to_string(next++ % kPages);
        request.bypass_cache = !hit;
        auto start = std::chrono::steady_clock::now();
        auto reply = service->Check(request);
        auto micros = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        stats.Record(micros,
                     reply.ok() && reply->result->status.ok());
      }
    });
  }
  for (std::thread& t : workers) t.join();
  service->Shutdown();

  LoadgenStats total;
  for (const LoadgenStats& s : per_thread) total.Merge(s);
  JsonLineWriter w;
  w.AddString("label", label);
  w.AddString("transport", "inproc");
  w.AddString("mix", mix);
  w.AddInt("connections", threads);
  w.AddInt("inflight", 1);
  w.AddInt("threads", threads);
  w.AddDouble("duration_s", duration_s);
  w.AddUint("requests", total.requests);
  w.AddDouble("qps", static_cast<double>(total.requests) / duration_s);
  w.AddDouble("p50_ms", total.PercentileMs(0.50));
  w.AddDouble("p95_ms", total.PercentileMs(0.95));
  w.AddDouble("p99_ms", total.PercentileMs(0.99));
  w.AddUint("errors", total.errors);
  w.AddUint("transport_errors", 0);
  std::string row = w.Finish();
  if (!row.empty() && row.back() == '\n') row.pop_back();
  return row;
}

int JsonMain(const std::string& json_path, const std::string& label,
             int threads, double duration_s) {
  std::string rows;
  for (const char* mix : {"hit", "miss"}) {
    std::string row = ClosedLoopRow(label, mix, threads, duration_s);
    if (row.empty()) {
      std::fprintf(stderr, "bench_server_throughput: %s row failed\n", mix);
      return 1;
    }
    if (!rows.empty()) rows += ",\n  ";
    rows += row;
  }
  std::string doc = "[\n  " + rows + "\n]\n";
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_server_throughput: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fwrite(doc.data(), 1, doc.size(), out);
  std::fclose(out);
  std::printf("bench_server_throughput: wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace dime

int main(int argc, char** argv) {
  std::string json_path;
  std::string label = "inproc (no transport)";
  int threads = 4;
  double duration_s = 2.0;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", argv[i]);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = next();
    } else if (std::strcmp(argv[i], "--label") == 0) {
      label = next();
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = std::atoi(next());
      if (threads < 1) threads = 1;
    } else if (std::strcmp(argv[i], "--duration-s") == 0) {
      duration_s = std::atof(next());
      if (duration_s <= 0) duration_s = 2.0;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    return dime::JsonMain(json_path, label, threads, duration_s);
  }
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
