// The three serving workloads: hot-read, cold-check and live-churn. Each
// starts dime_server from a seeded snapshot, drives it open loop over
// loopback from one thread, and checks every reply against the RunDime
// oracle after the timed phases. The traced run replays the same request
// stream in-process, with spans around each layer's public functions.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <utility>

#include "perfbench/src/bench.h"
#include "perfbench/src/client.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/trace.h"
#include "src/core/dime_plus.h"
#include "src/exec/pool.h"
#include "src/exec/sharded_dime.h"
#include "src/server/service.h"
#include "src/server/wire.h"
#include "src/store/delta_log.h"
#include "src/store/epoch.h"
#include "src/store/snapshot.h"

namespace perfbench {
namespace {

using dime::Group;

constexpr int64_t kMsNs = 1000000;
constexpr int64_t kSecNs = 1000000000;

/// Per-workload load shape. The latency limit applies to the tail
/// percentile of each phase (p99 once a phase has 1000 samples).
struct ServingConfig {
  const char* name;
  bool inline_groups;  ///< every request carries its own group (cold-check)
  bool churn;          ///< a writer appends deltas and reloads (live-churn)
  double reference_rate;  ///< req/s of the reference phase
  double limit_ms;        ///< latency limit on the tail percentile
  double ladder_start;    ///< req/s of the first ladder step
};

constexpr ServingConfig kServing[] = {
    {"hot-read", false, false, 1000.0, 50.0, 3000.0},
    {"cold-check", true, false, 140.0, 250.0, 180.0},
    {"live-churn", false, true, 500.0, 100.0, 600.0},
};

constexpr size_t kPages = 64;
constexpr double kZipfS = 1.0;
constexpr size_t kColdPool = 64;
constexpr size_t kColdStride = 37;  ///< coprime with kColdPool
/// Server starts timed for `setup_s`: half before the timed phases, half
/// after them, so the median covers the host as it was over the whole run.
constexpr int kSetupStarts = 24;
/// cold-check's closed-loop memory phase: passes over the pool.
constexpr size_t kMemoryPasses = 2;
/// Share of a run's measured seconds spent at the reference rate; the
/// rest is the ladder of rising rates.
constexpr double kReferenceShare = 0.7;
constexpr int kLadderSteps = 6;
constexpr double kLadderFactor = 1.3;
constexpr double kWarmupSeconds = 1.0;
/// The generator is behind its schedule when its median lag exceeds this.
/// Its tail lag is reported, not judged: timer wake-ups on a shared host
/// reach a few ms at p99 with nothing else running, and since latency is
/// timed from the due time, a late send only counts against the server.
constexpr double kMaxMedianLagMs = 1.0;
/// A failed or unanswered check counts as missing every latency limit.
constexpr double kFailedLatencyMs = 1e9;
constexpr int64_t kChurnPeriodNs = 1000 * kMsNs;
constexpr size_t kChurnGroups = 2;
constexpr size_t kChurnHotPages = 8;
constexpr int64_t kDrainNs = 30 * kSecNs;
const char kIdMarker[] = "~SFX~";

const ServingConfig* FindConfig(const std::string& name) {
  for (const ServingConfig& c : kServing) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

std::string ColdSuffix(uint64_t key) { return "~r" + std::to_string(key >> 8); }

/// Everything a serving run feeds the server, and the oracle's answers.
struct ServingInputs {
  dime::ScholarSetup setup = dime::MakeScholarSetup();
  std::vector<Group> pages;
  std::vector<uint64_t> page_digest;
  std::vector<Group> pool;
  std::vector<dime::DimeResult> pool_oracle;
  /// Escaped TSV of each pool group, split where the id suffixes go.
  std::vector<std::vector<std::string>> pool_segments;
  std::vector<std::vector<dime::DeltaRecord>> batches;
  std::string snapshot_path;
  std::string delta_log_path;
  /// Oracle digests of merged pages, by (cycle, page).
  std::map<std::pair<size_t, size_t>, uint64_t> merged_digest;

  /// The request members for `key`: a page name, or an inline group.
  std::string Body(const ServingConfig& config, uint64_t key) const {
    if (!config.inline_groups) {
      return "\"group\":\"page_" + std::to_string(key) + "\"";
    }
    const std::vector<std::string>& parts = pool_segments[key & 0xff];
    std::string suffix = ColdSuffix(key);
    std::string out = "\"group_tsv\":\"";
    size_t size = out.size() + 1 + parts.size() * suffix.size();
    for (const std::string& part : parts) size += part.size();
    out.reserve(size);
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) out += suffix;
      out += parts[i];
    }
    out += "\"";
    return out;
  }

  /// The digest of a correct reply for `key`, served from a corpus with
  /// churn cycle `cycle` merged (-1: the snapshot as built).
  uint64_t Expected(const ServingConfig& config, uint64_t key, int cycle) {
    if (config.inline_groups) {
      size_t j = key & 0xff;
      return ExpectedDigest(pool_oracle[j], pool[j], ColdSuffix(key));
    }
    if (cycle < 0) return page_digest[key];
    auto slot = std::make_pair(static_cast<size_t>(cycle), key);
    auto it = merged_digest.find(slot);
    if (it != merged_digest.end()) return it->second;
    Group merged = pages[key];
    size_t applied = 0;
    dime::Status status =
        dime::ApplyDeltaRecords(batches[static_cast<size_t>(cycle)], &merged,
                                &applied);
    uint64_t digest = 0;
    if (status.ok()) {
      digest = applied == 0 ? page_digest[key]
                            : ExpectedDigest(Oracle(merged, setup), merged);
    }
    merged_digest[slot] = digest;
    return digest;
  }
};

bool MakeInputs(const Options& options, const ServingConfig& config,
                ServingInputs* in, std::string* error) {
  in->pages = MakeScholarPages(options.seed, kPages);
  for (const Group& page : in->pages) {
    in->page_digest.push_back(ExpectedDigest(Oracle(page, in->setup), page));
  }
  in->snapshot_path = options.work_dir + "/corpus.snap";
  if (!WriteScholarSnapshot(in->setup, in->pages, in->snapshot_path, error)) {
    return false;
  }
  if (config.inline_groups) {
    in->pool = MakeColdPool(options.seed, kColdPool);
    for (const Group& g : in->pool) {
      in->pool_oracle.push_back(Oracle(g, in->setup));
      std::string tsv =
          dime::JsonEscape(dime::GroupToTsv(WithIdSuffix(g, kIdMarker)));
      std::vector<std::string> parts;
      size_t from = 0;
      for (size_t at = tsv.find(kIdMarker); at != std::string::npos;
           at = tsv.find(kIdMarker, from)) {
        parts.push_back(tsv.substr(from, at - from));
        from = at + sizeof(kIdMarker) - 1;
      }
      parts.push_back(tsv.substr(from));
      in->pool_segments.push_back(std::move(parts));
    }
    // The renamed copy must decide exactly as its base (the premise that
    // lets one oracle run serve every request built from that base).
    Group renamed = WithIdSuffix(in->pool[0], ColdSuffix(1u << 8));
    if (ExpectedDigest(Oracle(renamed, in->setup), renamed) !=
        ExpectedDigest(in->pool_oracle[0], in->pool[0], ColdSuffix(1u << 8))) {
      *error = "renaming ids changed the oracle's decision";
      return false;
    }
  }
  if (config.churn) {
    in->delta_log_path = options.work_dir + "/corpus.dlog";
    size_t cycles = static_cast<size_t>(
        (options.seconds + kWarmupSeconds + 60) * kSecNs / kChurnPeriodNs);
    for (size_t c = 0; c < cycles; ++c) {
      in->batches.push_back(MakeChurnBatch(in->pages, options.seed, c,
                                           kChurnGroups, kChurnHotPages));
    }
  }
  return true;
}

std::vector<std::string> ServerArgs(const Options& options,
                                    const ServingConfig& config,
                                    const ServingInputs& in) {
  std::string n = std::to_string(options.nproc);
  std::vector<std::string> args = {"--snapshot", in.snapshot_path,
                                   "--workers", n, "--threads", n,
                                   "--cache-cap", "256", "--queue-cap", "4096"};
  if (config.churn) {
    // Merges happen only through the reload verb: the size trigger of the
    // watcher is set out of reach. Shutdown waits out the watcher's sleep,
    // and a run stops the server kSetupStarts times, so the sleep is short.
    args.insert(args.end(), {"--delta-log", in.delta_log_path,
                             "--delta-threshold-bytes", "1000000000000",
                             "--watch-interval-ms", "100"});
  }
  return args;
}

/// Starts the server `runs` times, timing each start up to its first
/// correct answer; the last server keeps running.
bool MeasureSetup(const Options& options, const ServingConfig& config,
                  const ServingInputs& in, int runs, ServerProcess* server,
                  Samples* setup_s, Outcome* out, std::string* error) {
  const std::string probe = "{\"type\":\"check\",\"group\":\"page_0\"}\n";
  for (int r = 0; r < runs; ++r) {
    server->Stop();
    int64_t start = NowNs();
    if (!server->Start(options.server_binary, ServerArgs(options, config, in),
                       options.work_dir + "/server.log", error)) {
      return false;
    }
    std::string line;
    ReplyFields reply;
    ++out->attempted;
    if (!RoundTrip(server->port(), probe, &line) || !ParseReply(line, &reply) ||
        reply.status != "OK") {
      ++out->failed;
      *error = "set-up probe failed: " + line;
      return false;
    }
    setup_s->Add(static_cast<double>(NowNs() - start) / kSecNs);
    if (DecisionDigest(reply.partitions, reply.pivot_size,
                       reply.flagged_per_prefix,
                       reply.flagged) != in.page_digest[0]) {
      ++out->failed;
      ++out->mismatched;
    }
  }
  return true;
}

/// One churn cycle as the writer lived it.
struct CycleLog {
  int64_t start_ns = 0;
  int64_t last_append_ns = 0;
  uint64_t merged_epoch = 0;
  bool ok = false;
};

/// The live-churn writer: every cycle appends one batch of delta records
/// at a fixed rate over the first half of the cycle, then asks the server
/// to reload (re-read the snapshot and merge the log).
class ChurnWriter {
 public:
  ChurnWriter(const ServingInputs& in, int port, int64_t t0)
      : in_(in), port_(port), t0_(t0) {}
  ~ChurnWriter() { Stop(); }
  ChurnWriter(const ChurnWriter&) = delete;
  ChurnWriter& operator=(const ChurnWriter&) = delete;

  void Start() { thread_ = std::thread([this] { Loop(); }); }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Read only after Stop().
  const std::vector<CycleLog>& cycles() const { return cycles_; }
  const std::string& error() const { return error_; }

 private:
  void Loop() {
    BlockingConn admin;
    dime::StatusOr<dime::DeltaLogWriter> writer =
        dime::DeltaLogWriter::Open(in_.delta_log_path);
    if (!admin.Connect(port_) || !writer.ok()) {
      error_ = "churn writer could not start";
      return;
    }
    for (size_t c = 0; c < in_.batches.size() && !stop_.load(); ++c) {
      CycleLog log;
      log.start_ns = t0_ + static_cast<int64_t>(c) * kChurnPeriodNs;
      const auto& batch = in_.batches[c];
      const int64_t gap = kChurnPeriodNs / 2 / static_cast<int64_t>(batch.size());
      for (size_t j = 0; j < batch.size(); ++j) {
        SleepUntil(log.start_ns + static_cast<int64_t>(j) * gap);
        if (!writer->Append(batch[j]).ok()) error_ = "delta append failed";
        log.last_append_ns = NowNs();
      }
      SleepUntil(log.start_ns + kChurnPeriodNs / 2);
      std::string line;
      ReplyFields reply;
      log.ok = admin.Call("{\"type\":\"reload\"}\n", &line, 30000) &&
               ParseReply(line, &reply) && reply.status == "OK" &&
               reply.delta_records == batch.size();
      log.merged_epoch = reply.epoch;
      cycles_.push_back(std::move(log));
      SleepUntil(t0_ + static_cast<int64_t>(c + 1) * kChurnPeriodNs);
    }
  }
  void SleepUntil(int64_t t) {
    int64_t now = NowNs();
    if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
  }

  const ServingInputs& in_;
  int port_;
  int64_t t0_;
  std::atomic<bool> stop_{false};
  std::vector<CycleLog> cycles_;
  std::string error_;
  std::thread thread_;  // last: joined before the members it uses go
};

/// Generates the requests of one open-loop phase at a fixed rate.
class Planner {
 public:
  Planner(const ServingConfig& config, uint64_t seed, size_t connections)
      : config_(config), rng_(seed), zipf_(kPages, kZipfS),
        connections_(connections) {}

  std::vector<Planned> Phase(double rate, double seconds) {
    size_t n = static_cast<size_t>(std::llround(rate * seconds));
    int64_t start = NowNs() + 2 * kMsNs;
    std::vector<Planned> plan(n);
    for (size_t i = 0; i < n; ++i) {
      plan[i].due_ns = start + static_cast<int64_t>(i * 1e9 / rate);
      plan[i].conn = static_cast<uint32_t>(sent_++ % connections_);
      plan[i].key = NextKey();
    }
    return plan;
  }

  /// `n` requests for a closed-loop run (no due times).
  std::vector<Planned> Closed(size_t n) {
    std::vector<Planned> plan(n);
    for (Planned& p : plan) p.key = NextKey();
    return plan;
  }

  /// Every page once, at `rate` (fills the cache before warm-up).
  std::vector<Planned> EveryPage(double rate) {
    std::vector<Planned> plan = Phase(rate, kPages / rate);
    for (size_t i = 0; i < plan.size(); ++i) plan[i].key = i;
    return plan;
  }

 private:
  uint64_t NextKey() {
    if (!config_.inline_groups) return zipf_(rng_);
    // Pool group j has the j-th size of an even ladder (MakeColdPool), so a
    // fixed stride visits the same sequence of sizes whatever the seed:
    // how much work arrives when, and so how much is in flight at once,
    // does not change from seed to seed; the groups' content does.
    uint64_t seq = ++cold_seq_;
    return (seq << 8) | (seq * kColdStride % kColdPool);
  }

  const ServingConfig& config_;
  std::mt19937_64 rng_;
  ZipfSampler zipf_;
  size_t connections_;
  uint64_t sent_ = 0;
  uint64_t cold_seq_ = 0;
};

double LatencyMs(const Completed& c) {
  return c.ok ? static_cast<double>(c.done_ns - c.due_ns) / kMsNs
              : kFailedLatencyMs;
}

struct PhaseSummary {
  double rate = 0;
  Samples latency_ms;
  Samples lag_ms;
  double tail_ms = 0;
  double tail_p = 0;  ///< the percentile `tail_ms` is
};

PhaseSummary Summarize(double rate, const std::vector<Completed>& records) {
  PhaseSummary s;
  s.rate = rate;
  for (const Completed& c : records) {
    s.latency_ms.Add(LatencyMs(c));
    s.lag_ms.Add(static_cast<double>(c.sent_ns - c.due_ns) / kMsNs);
  }
  s.tail_ms = s.latency_ms.TailPercentile(0.99, 10, &s.tail_p);
  return s;
}

/// A phase meets the limit when its tail does and the generator kept to
/// its schedule (a rate the generator could not offer is not certified).
bool OnSchedule(PhaseSummary& s) {
  return s.lag_ms.Median() <= kMaxMedianLagMs;
}

bool Meets(PhaseSummary& s, const ServingConfig& config) {
  return s.tail_ms <= config.limit_ms && OnSchedule(s);
}

/// Compares every wire reply with the oracle. Churn replies are judged
/// against the corpus their epoch served: a merged epoch carries its
/// cycle's batch, every other epoch is the snapshot as built.
void CheckReplies(const ServingConfig& config, ServingInputs& in,
                  const std::vector<CycleLog>& cycles,
                  const std::vector<Completed>& records, Outcome* out) {
  std::map<uint64_t, int> cycle_of_epoch;
  for (size_t c = 0; c < cycles.size(); ++c) {
    if (cycles[c].ok) cycle_of_epoch[cycles[c].merged_epoch] = static_cast<int>(c);
  }
  for (const Completed& r : records) {
    ++out->attempted;
    if (!r.ok) {
      ++out->failed;
      continue;
    }
    auto it = cycle_of_epoch.find(r.epoch);
    int cycle = it == cycle_of_epoch.end() ? -1 : it->second;
    if (r.digest != in.Expected(config, r.key, cycle)) {
      ++out->failed;
      ++out->mismatched;
    }
  }
  for (const CycleLog& c : cycles) {
    ++out->attempted;
    if (!c.ok) ++out->failed;
  }
}

/// Freshness: from the last append of each batch to the first read that
/// was answered from the epoch that merged it.
Samples Freshness(const std::vector<CycleLog>& cycles,
                  std::vector<const Completed*> reads) {
  std::sort(reads.begin(), reads.end(),
            [](const Completed* a, const Completed* b) {
              return a->done_ns < b->done_ns;
            });
  Samples out;
  for (const CycleLog& c : cycles) {
    if (!c.ok) continue;
    for (const Completed* r : reads) {
      if (r->ok && r->done_ns > c.last_append_ns && r->epoch >= c.merged_epoch) {
        out.Add(static_cast<double>(r->done_ns - c.last_append_ns) / kMsNs);
        break;
      }
    }
  }
  return out;
}

std::vector<Proto> ReadProtocols(const Options& options,
                                 const ServingConfig& config) {
  // Reads get every connection the host allows, less the writer's one;
  // they alternate between the line protocol and HTTP.
  unsigned n = options.nproc > (config.churn ? 1u : 0u)
                   ? options.nproc - (config.churn ? 1u : 0u)
                   : 1u;
  std::vector<Proto> protos;
  for (unsigned i = 0; i < n; ++i) {
    protos.push_back(i % 2 == 0 ? Proto::kLine : Proto::kHttp);
  }
  return protos;
}

bool FetchStats(int port, ReplyFields* stats) {
  std::string line;
  return RoundTrip(port, "{\"type\":\"stats\"}\n", &line) &&
         ParseReply(line, stats) && stats->status == "OK";
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.

Outcome RunUntraced(const Options& options, const ServingConfig& config) {
  Outcome out;
  ServingInputs in;
  std::string error;
  if (!MakeInputs(options, config, &in, &error)) {
    out.invalid = error;
    return out;
  }
  ServerProcess server;
  Samples setup_s;
  if (!MeasureSetup(options, config, in, kSetupStarts / 2, &server, &setup_s,
                    &out, &error)) {
    out.invalid = error;
    return out;
  }
  std::vector<Proto> protos = ReadProtocols(options, config);
  LoadGenerator generator(server.port(), protos);
  if (!generator.ok()) {
    out.invalid = "cannot connect the load generator";
    return out;
  }
  auto body = [&](uint64_t key) { return in.Body(config, key); };
  Planner planner(config, options.seed, protos.size());
  std::vector<Completed> all;
  auto keep = [&all](std::vector<Completed> records) {
    all.insert(all.end(), records.begin(), records.end());
  };

  if (!config.inline_groups) {
    keep(generator.Run(planner.EveryPage(config.reference_rate), body, kDrainNs));
  }
  // cold-check reads memory after a closed loop over the pool, with one
  // request per connection outstanding: the groups in flight at once are
  // then fixed, where in the open loop their number follows the host's
  // speed.
  double peak_rss_mb = 0;
  if (config.inline_groups) {
    keep(generator.Run(planner.Closed(kMemoryPasses * kColdPool), body,
                       kDrainNs, /*closed=*/true));
    peak_rss_mb = server.PeakRssMb();
  }
  std::unique_ptr<ChurnWriter> writer;
  if (config.churn) {
    writer = std::make_unique<ChurnWriter>(in, server.port(), NowNs());
    writer->Start();
  }
  keep(generator.Run(planner.Phase(config.reference_rate, kWarmupSeconds), body,
                  kDrainNs));

  const double cpu_before = server.CpuMs();
  const CpuTicks ticks_before = ReadCpuTicks();
  std::vector<Completed> reference = generator.Run(
      planner.Phase(config.reference_rate, kReferenceShare * options.seconds),
      body, kDrainNs);
  const double cpu_ms_per_check =
      (server.CpuMs() - cpu_before) / static_cast<double>(reference.size());
  const double steal = StealShare(ticks_before, ReadCpuTicks());
  PhaseSummary ref = Summarize(config.reference_rate, reference);
  // Read before the ladder: past the highest sustainable rate, the backlog
  // of admitted requests sets the high-water mark, not the program.
  if (!config.inline_groups) peak_rss_mb = server.PeakRssMb();
  keep(reference);

  // Ladder: rising fixed rates until one misses the limit.
  std::vector<PhaseSummary> steps;
  double step_seconds = (1.0 - kReferenceShare) * options.seconds / kLadderSteps;
  double rate = config.ladder_start;
  for (int k = 0; k < kLadderSteps; ++k, rate *= kLadderFactor) {
    std::vector<Completed> records =
        generator.Run(planner.Phase(rate, step_seconds), body, kDrainNs);
    steps.push_back(Summarize(rate, records));
    keep(records);
    if (!Meets(steps.back(), config)) break;
  }
  if (writer != nullptr) writer->Stop();

  ReplyFields stats;
  bool have_stats = FetchStats(server.port(), &stats);
  server.Stop();

  // The second half of the set-up starts, from the same files as the first:
  // the churn writer's delta log goes, so a start merges nothing.
  if (config.churn) std::remove(in.delta_log_path.c_str());
  if (!MeasureSetup(options, config, in, kSetupStarts - kSetupStarts / 2,
                    &server, &setup_s, &out, &error)) {
    out.invalid = error;
    return out;
  }
  server.Stop();

  std::vector<CycleLog> cycles;
  if (writer != nullptr) {
    cycles = writer->cycles();
    if (!writer->error().empty()) out.invalid = writer->error();
  }
  CheckReplies(config, in, cycles, all, &out);

  // Highest rate meeting the limit, interpolated on log latency between
  // the last passing and the first failing phase.
  PhaseSummary* pass = Meets(ref, config) ? &ref : nullptr;
  PhaseSummary* fail = pass == nullptr ? &ref : nullptr;
  for (PhaseSummary& s : steps) {
    if (fail != nullptr) break;
    if (Meets(s, config)) pass = &s;
    else fail = &s;
  }
  double max_rate = 0;
  if (pass != nullptr && fail != nullptr) {
    double span = fail->tail_ms > config.limit_ms
                      ? std::log(fail->tail_ms / pass->tail_ms)
                      : 0.0;  // failed on generator lag alone: no interpolation
    double frac = span > 0 ? std::log(config.limit_ms / pass->tail_ms) / span : 0;
    max_rate = pass->rate + (fail->rate - pass->rate) * std::clamp(frac, 0.0, 1.0);
  } else if (pass != nullptr) {
    max_rate = pass->rate;  // the ladder topped out: a lower bound
    out.notes.push_back("note: every ladder step met the limit; max_rate_qps "
                        "is a lower bound");
  } else {
    max_rate = ref.rate * config.limit_ms / ref.tail_ms;
    out.notes.push_back("note: the reference rate missed the limit");
  }

  // The reference phase must be a true open loop; a ladder step where the
  // generator lagged only ends the ladder (see Meets).
  if (!OnSchedule(ref) && out.invalid.empty()) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "generator fell behind its schedule in the reference phase "
                  "(lag p50 %.3f ms, p99 %.3f ms)",
                  ref.lag_ms.Median(), ref.lag_ms.Percentile(0.99));
    out.invalid = msg;
  }

  out.result = {
      {"check_cpu_ms", cpu_ms_per_check, "ms"},
      {"setup_s", setup_s.Median(), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  out.report = {
      {"check_p50_ms", ref.latency_ms.Median(), "ms"},
      {"check_p99_ms", ref.tail_ms, "ms"},
      {"max_rate_qps", max_rate, "req/s"},
      {"check_samples", static_cast<double>(ref.latency_ms.size()), "count"},
      {"check_tail_percentile", ref.tail_p * 100, "%"},
      {"reference_rate", config.reference_rate, "req/s"},
      {"latency_limit_ms", config.limit_ms, "ms"},
      {"setup_samples", static_cast<double>(setup_s.size()), "count"},
      {"host_steal_share", steal, "ratio"},
      {"generator_lag_p50_ms", ref.lag_ms.Median(), "ms"},
      {"generator_lag_p99_ms", ref.lag_ms.Percentile(0.99), "ms"},
      {"generator_lag_max_ms", ref.lag_ms.Max(), "ms"},
  };
  if (have_stats) {
    double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
    out.report.push_back({"cache_hit_ratio",
                          lookups > 0 ? stats.cache_hits / lookups : 0, "ratio"});
  }
  if (config.churn) {
    std::vector<const Completed*> reads;
    for (const Completed& c : all) reads.push_back(&c);
    Samples fresh = Freshness(cycles, reads);
    out.report.push_back({"freshness_p50_ms", fresh.Median(), "ms"});
    out.report.push_back({"freshness_samples", static_cast<double>(fresh.size()),
                          "count"});
  }
  char line[200];
  auto describe = [&](const char* kind, PhaseSummary& s) {
    std::snprintf(line, sizeof(line),
                  "phase %s: rate %.0f req/s, p50 %.3f ms, p%.2f %.3f ms "
                  "(%zu samples), generator lag p99 %.3f ms, %s",
                  kind, s.rate, s.latency_ms.Median(), s.tail_p * 100, s.tail_ms,
                  s.latency_ms.size(), s.lag_ms.Percentile(0.99),
                  Meets(s, config) ? "meets limit" : "misses limit");
    out.notes.push_back(line);
  };
  describe("reference", ref);
  for (PhaseSummary& s : steps) describe("ladder", s);
  return out;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.

struct ReplayStats {
  int64_t wall_ns = 0;
  size_t requests = 0;
  std::vector<int64_t> check_ns;  ///< in-process Check latency, by request
  Samples queue_wait_ms;
  int64_t core_credit_ns = 0;  ///< engine work done inside server.check
  EngineTally tally;
  uint64_t mismatched = 0;
};

/// Replays `stream` in-process, one request at a time, through the same
/// public functions the server calls: parse, DimeService::Check,
/// serialize; churn cycles append and merge at their times. Every engine
/// run the service made is repeated outside it (PrepareGroup, step 1,
/// full DIME+, sharded DIME+) to time the core and exec layers.
ReplayStats Replay(const Options& options, const ServingConfig& config,
                   ServingInputs& in, const std::vector<Planned>& stream,
                   int64_t churn_t0, size_t max_requests, int64_t budget_ns,
                   Tracer* tracer) {
  ReplayStats st;
  int64_t start = NowNs();
  std::unique_ptr<dime::DimeService> service;
  {
    Tracer::Scope load(tracer, "store.snapshot_load", "store", 0);
    dime::StatusOr<dime::LoadedSnapshot> loaded =
        dime::LoadSnapshot(in.snapshot_path);
    if (!loaded.ok()) return st;
    dime::ServiceOptions so;
    so.num_workers = options.nproc;
    so.engine_threads = options.nproc;
    so.cache_capacity = 256;
    so.queue_capacity = 4096;
    service = std::make_unique<dime::DimeService>(
        dime::CorpusFromSnapshot(std::move(loaded).value()), so);
  }
  dime::exec::PoolOptions po;
  po.num_threads = options.nproc;
  dime::exec::WorkStealingPool pool(po);
  const std::string log_path =
      options.work_dir + (tracer->enabled() ? "/replay-on.dlog" : "/replay-off.dlog");
  std::unique_ptr<dime::DeltaLogWriter> writer;
  std::map<uint64_t, int> cycle_of_epoch;
  size_t next_cycle = 0;
  const auto& pos = in.setup.positive;
  const auto& neg = in.setup.negative;

  for (size_t i = 0; i < stream.size() && i < max_requests; ++i) {
    if (budget_ns > 0 && NowNs() - start > budget_ns) break;
    const Planned& p = stream[i];
    // Churn cycles whose reload fell before this request.
    while (config.churn && next_cycle < in.batches.size() &&
           churn_t0 + static_cast<int64_t>(next_cycle) * kChurnPeriodNs +
                   kChurnPeriodNs / 2 <= p.due_ns) {
      if (writer == nullptr) {
        auto opened = dime::DeltaLogWriter::Open(log_path);
        if (!opened.ok()) break;
        writer = std::make_unique<dime::DeltaLogWriter>(std::move(opened).value());
      }
      for (const dime::DeltaRecord& record : in.batches[next_cycle]) {
        Tracer::Scope append(tracer, "store.delta_append", "store", i);
        if (!writer->Append(record).ok()) ++st.mismatched;
      }
      {
        Tracer::Scope reload(tracer, "store.snapshot_reload", "store", i);
        if (!service->ReloadFromSnapshot(in.snapshot_path).ok()) ++st.mismatched;
      }
      Tracer::Scope merge(tracer, "store.delta_merge", "store", i);
      auto merged = service->ApplyDeltaLog(log_path, /*rotate_applied=*/true);
      if (merged.ok()) {
        cycle_of_epoch[merged->sequence] = static_cast<int>(next_cycle);
      } else {
        ++st.mismatched;
      }
      ++next_cycle;
    }

    const std::string line = "{\"type\":\"check\"," + in.Body(config, p.key) + "}";
    Tracer::Scope root(tracer, "request", "", i);
    dime::WireRequest wire;
    Group inline_group;
    {
      Tracer::Scope parse(tracer, "server.wire_parse", "server", i);
      auto object = dime::ParseJsonObjectLine(line);
      auto request = object.ok() ? dime::RequestFromJson(*object,
                                                         dime::WireRequest::Type::kCheck)
                                 : dime::StatusOr<dime::WireRequest>(object.status());
      if (request.ok()) wire = std::move(request).value();
      if (!wire.group_tsv.empty() &&
          !dime::ParseGroupTsv(wire.group_tsv, "inline", &inline_group).ok()) {
        wire.group_tsv.clear();
      }
    }
    dime::CheckRequest check;
    if (config.inline_groups) {
      check.group = &inline_group;
    } else {
      check.group_name = wire.group_name;
    }
    Tracer::Scope check_span(tracer, "server.check", "server", i);
    dime::StatusOr<dime::CheckReply> reply = service->Check(check);
    int64_t check_ns = check_span.End();
    st.check_ns.push_back(check_ns);
    ++st.requests;
    if (!reply.ok()) {
      ++st.mismatched;
      continue;
    }
    {
      Tracer::Scope serialize(tracer, "server.wire_serialize", "server", i);
      std::string bytes = dime::SerializeCheckResponse(wire.id, *reply->group, *reply);
    }
    {
      Tracer::Scope fp(tracer, "server.fingerprint", "", i);
      (void)service->RequestFingerprint(dime::EngineKind::kPlus, *reply->group);
    }
    auto it = cycle_of_epoch.find(reply->epoch->sequence());
    int cycle = it == cycle_of_epoch.end() ? -1 : it->second;
    if (ExpectedDigest(*reply->result, *reply->group) !=
        in.Expected(config, p.key, cycle)) {
      ++st.mismatched;
    }
    if (reply->cache_hit) continue;

    // The engine work this miss cost, repeated outside the service.
    const Group& group = *reply->group;
    Tracer::Scope prep(tracer, "core.prepare",
                       config.inline_groups ? "core" : "", i);
    dime::PreparedGroup pg = dime::PrepareGroup(group, pos, neg, in.setup.context);
    int64_t prep_ns = prep.End();
    st.tally.prepare_ns += prep_ns;
    st.tally.entities += group.size();
    Tracer::Scope step1(tracer, "core.step1", "", i);
    (void)dime::RunDimePlus(pg, pos, {});
    st.tally.step1_ms.Add(NsToMs(step1.End()));
    Tracer::Scope full(tracer, "core.engine", "core", i);
    dime::DimeResult result = dime::RunDimePlus(pg, pos, neg);
    int64_t full_ns = full.End();
    st.tally.full_ms.Add(NsToMs(full_ns));
    st.tally.AddStats(result.stats, group.size());
    dime::exec::ShardedOptions sharded;
    sharded.pool = &pool;
    Tracer::Scope sh(tracer, "exec.sharded", "", i);
    (void)dime::exec::RunDimePlusSharded(pg, pos, neg, sharded);
    st.tally.sharded_ms.Add(NsToMs(sh.End()));
    dime::exec::ShardedOptions inline_opts;
    inline_opts.num_threads = 1;
    Tracer::Scope sh1(tracer, "exec.sharded_1t", "", i);
    (void)dime::exec::RunDimePlusSharded(pg, pos, neg, inline_opts);
    st.tally.sharded_1t_ms.Add(NsToMs(sh1.End()));

    int64_t engine_ns = (config.inline_groups ? prep_ns : 0) + full_ns;
    st.core_credit_ns += std::min(engine_ns, check_ns);
    st.queue_wait_ms.Add(NsToMs(std::max<int64_t>(0, check_ns - engine_ns)));
  }
  service->Shutdown();
  st.wall_ns = NowNs() - start;
  return st;
}

Outcome RunTraced(const Options& options, const ServingConfig& config) {
  Outcome out;
  ServingInputs in;
  std::string error;
  if (!MakeInputs(options, config, &in, &error)) {
    out.invalid = error;
    return out;
  }
  Tracer tracer(true);

  // Snapshot loads the serving path does not make, for a steadier median
  // (charged to no layer).
  for (int k = 0; k < 4; ++k) {
    Tracer::Scope load(&tracer, "store.snapshot_load", "", 0);
    if (!dime::LoadSnapshot(in.snapshot_path).ok()) {
      out.invalid = "snapshot does not load";
      return out;
    }
  }

  ServerProcess server;
  Samples setup_s;
  if (!MeasureSetup(options, config, in, 1, &server, &setup_s, &out, &error)) {
    out.invalid = error;
    return out;
  }
  std::vector<Proto> protos = ReadProtocols(options, config);
  LoadGenerator generator(server.port(), protos);
  if (!generator.ok()) {
    out.invalid = "cannot connect the load generator";
    return out;
  }
  auto body = [&](uint64_t key) { return in.Body(config, key); };
  Planner planner(config, options.seed, protos.size());
  std::vector<Planned> stream;
  std::vector<Completed> wire;
  auto run = [&](std::vector<Planned> plan) {
    std::vector<Completed> records = generator.Run(plan, body, kDrainNs);
    stream.insert(stream.end(), plan.begin(), plan.end());
    wire.insert(wire.end(), records.begin(), records.end());
  };
  if (!config.inline_groups) run(planner.EveryPage(config.reference_rate));
  int64_t churn_t0 = NowNs();
  std::unique_ptr<ChurnWriter> writer;
  if (config.churn) {
    writer = std::make_unique<ChurnWriter>(in, server.port(), churn_t0);
    writer->Start();
  }
  run(planner.Phase(config.reference_rate, kWarmupSeconds));
  run(planner.Phase(config.reference_rate, kReferenceShare * options.seconds));
  if (writer != nullptr) writer->Stop();
  ReplyFields stats;
  bool have_stats = FetchStats(server.port(), &stats);
  server.Stop();
  std::vector<CycleLog> cycles;
  if (writer != nullptr) cycles = writer->cycles();
  CheckReplies(config, in, cycles, wire, &out);

  // Replay the same stream in-process: once untraced (which also fixes
  // how many requests fit the budget), then traced.
  int64_t budget = static_cast<int64_t>(options.seconds) * kSecNs / 4;
  Tracer off(false);
  ReplayStats base = Replay(options, config, in, stream, churn_t0,
                            stream.size(), budget, &off);
  ReplayStats st = Replay(options, config, in, stream, churn_t0, base.requests,
                          0, &tracer);
  out.attempted += st.requests;
  out.failed += st.mismatched;
  out.mismatched += st.mismatched;

  // Transport: wire latency minus in-process Check latency, per request.
  std::map<Proto, Samples> wire_ms, inproc_ms;
  for (size_t i = 0; i < st.requests && i < wire.size(); ++i) {
    const Completed& w = wire[i];
    if (!w.ok) continue;
    Proto proto = protos[w.conn % protos.size()];
    int64_t wire_ns = w.done_ns - w.due_ns;
    wire_ms[proto].Add(NsToMs(wire_ns));
    inproc_ms[proto].Add(NsToMs(st.check_ns[i]));
    int64_t transport = std::max<int64_t>(0, wire_ns - st.check_ns[i]);
    tracer.Add("server.transport", "server", w.due_ns, w.due_ns + transport, i);
  }
  std::map<std::string, int64_t> self = tracer.SelfTimeByLayer();
  // The engine ran inside server.check; it is charged to core, not server.
  self["server"] -= st.core_credit_ns;

  st.tally.AppendMetrics(options.nproc, &out.result);
  out.result.push_back({"trace.overhead_share",
                        base.wall_ns > 0 ? static_cast<double>(st.wall_ns - base.wall_ns) /
                                               base.wall_ns
                                         : 0.0,
                        "ratio"});

  auto median_us = [&](const char* name) {
    Samples s;
    for (int64_t ns : tracer.Durations(name)) s.Add(static_cast<double>(ns) / 1e3);
    return s.Median();
  };
  auto transport = [&](Proto proto) {
    return wire_ms[proto].Median() - inproc_ms[proto].Median();
  };
  double bytes = 0;
  for (const Completed& w : wire) bytes += static_cast<double>(w.bytes_in + w.bytes_out);
  out.report = {
      {"server.transport_ms_p50.line", transport(Proto::kLine), "ms"},
      {"server.transport_ms_p50.http", transport(Proto::kHttp), "ms"},
      {"server.wire_parse_us", median_us("server.wire_parse"), "us"},
      {"server.wire_serialize_us", median_us("server.wire_serialize"), "us"},
      {"server.fingerprint_us", median_us("server.fingerprint"), "us"},
      {"server.queue_wait_ms_p50", st.queue_wait_ms.Median(), "ms"},
      {"server.bytes_per_check", wire.empty() ? 0 : bytes / wire.size(), "bytes"},
      {"store.snapshot_load_ms", median_us("store.snapshot_load") / 1e3, "ms"},
      {"replayed_requests", static_cast<double>(st.requests), "count"},
      {"queue_wait_samples", static_cast<double>(st.queue_wait_ms.size()), "count"},
  };
  if (have_stats) {
    double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
    double offered = static_cast<double>(stats.accepted + stats.rejected);
    out.report.push_back({"server.cache_hit_ratio",
                          lookups > 0 ? stats.cache_hits / lookups : 0, "ratio"});
    out.report.push_back({"server.shed_share",
                          offered > 0 ? stats.rejected / offered : 0, "ratio"});
    out.report.push_back({"store.epochs_installed",
                          static_cast<double>(stats.epochs_installed), "count"});
    out.report.push_back({"store.epochs_retired",
                          static_cast<double>(stats.epochs_retired), "count"});
  }
  AppendLayerShares(config.name, self, &out.report, &out.notes);
  if (config.churn) {
    out.report.push_back({"store.delta_append_us", median_us("store.delta_append"), "us"});
    out.report.push_back({"store.delta_merge_ms",
                          median_us("store.delta_merge") / 1e3, "ms"});
    out.report.push_back({"store.snapshot_reload_ms",
                          median_us("store.snapshot_reload") / 1e3, "ms"});
  }
  if (!options.trace_path.empty() && !tracer.WriteJsonLines(options.trace_path)) {
    out.notes.push_back("warning: could not write spans to " + options.trace_path);
  }
  return out;
}

}  // namespace

bool IsServingWorkload(const std::string& name) {
  return FindConfig(name) != nullptr;
}

Outcome RunServingWorkload(const Options& options) {
  const ServingConfig& config = *FindConfig(options.workload);
  return options.trace ? RunTraced(options, config)
                       : RunUntraced(options, config);
}

}  // namespace perfbench
