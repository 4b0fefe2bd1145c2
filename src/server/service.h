#ifndef DIME_SERVER_SERVICE_H_
#define DIME_SERVER_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/deadline.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/exec/engine.h"
#include "src/exec/pool.h"
#include "src/server/latency_histogram.h"
#include "src/server/request_queue.h"
#include "src/server/result_cache.h"
#include "src/store/delta_log.h"
#include "src/store/epoch.h"

/// \file service.h
/// The resident DIME service: loads a corpus (rules, ontologies, optional
/// preloaded groups) ONCE and answers repeated "check group G" requests
/// without re-ingesting anything. This is the in-process API; the socket
/// transport (event_loop.h) and the wire dispatch (dispatch.h) sit on top
/// of it, so tests, benches and the CLI can drive the service without
/// sockets.
///
/// Request lifecycle:
///
///   Check() ── admit ── pin epoch ── cache key ──> result cache ── hit ──> reply
///                 │ miss
///                 v
///         bounded queue  ── full ──> RESOURCE_EXHAUSTED (shed, never block)
///                 │ admitted
///                 v
///         worker pool ──> exec::RunEngine (PrepareGroup first for an
///                 │          inline group; resident groups are prepared)
///                 │          (per-request deadline via RunControl,
///                 │           anchored at ADMISSION so queue wait counts)
///                 v
///         cache insert (complete results only) ──> reply
///
/// Live corpus. The corpus is no longer fixed at construction: it lives
/// behind an EpochManager (store/epoch.h). Every request pins the current
/// epoch at admission and serves entirely from it — a reload or delta
/// merge mid-request cannot mix generations. InstallCorpus /
/// ReloadFromSnapshot / ApplyDeltaLog publish a new epoch atomically;
/// the superseded epoch is destroyed when its last in-flight request
/// finishes, and a snapshot mapping is unmapped once no serving group
/// borrows from it. The result cache is keyed on content, not on the
/// epoch: RequestFingerprint combines the engine, the epoch's context key
/// (rules, schema, ontologies) and the group's content key, so a swap
/// does not clear the cache. Entries for groups a reload or delta merge
/// left unchanged keep hitting under the new epoch; a changed group, or
/// any change to the rules or ontologies, misses (see result_cache.h).
///
/// Shutdown() closes the queue: admitted work drains, new work gets
/// UNAVAILABLE. Every piece of shared state is a PR-2 annotated Mutex /
/// DIME_GUARDED_BY field, so Clang TSA and the TSan CI leg cover the
/// serving layer exactly like the engines.

namespace dime {

struct ServiceOptions {
  /// Worker threads executing engine runs. 0 is normalized to 1.
  unsigned num_workers = 4;
  /// Bounded queue depth; a push beyond it is shed with
  /// RESOURCE_EXHAUSTED (admission control, see request_queue.h).
  size_t queue_capacity = 64;
  /// LRU result-cache entries; 0 disables caching.
  size_t cache_capacity = 128;
  /// Deadline applied when a request does not carry one. <= 0: unbounded.
  int64_t default_deadline_ms = 0;
  EngineKind default_engine = EngineKind::kPlus;
  /// Executors of the shared scheduler pool DIME+ runs groups of
  /// kPrepareChunkEntities entities or more on (exec::RunEngine; one
  /// pool for the whole service — serving workers spawn task groups into
  /// it and help execute while they wait, so concurrent requests
  /// time-share the same threads instead of oversubscribing). 0 = the
  /// --threads / DIME_THREADS / hardware_concurrency precedence of
  /// exec::ResolveThreadCount.
  unsigned engine_threads = 0;
  /// Test-only: invoked by a worker before executing each admitted
  /// request. Lets tests hold the pool at a barrier to fill the queue
  /// deterministically. Must not throw.
  std::function<void()> worker_pre_run_hook;
  /// Test hook forwarded to the EpochManager: fires with the epoch's
  /// sequence after a retired epoch is fully destroyed.
  /// Must be thread-safe.
  std::function<void(uint64_t)> epoch_retire_hook;
  /// Test-only: invoked by a rotating delta merge (ApplyDeltaLog with
  /// rotate_applied) after it read the log but before it takes the log's
  /// lock to verify quiescence — lets tests land a concurrent append at
  /// exactly the racy moment. Not called on the final, fully-locked
  /// attempt (an append there would deadlock on the flock). Must not
  /// throw.
  std::function<void()> delta_merge_race_hook;
};

struct CheckRequest {
  /// Inline group to check (borrowed; must outlive the Check call). When
  /// null, `group_name` selects a preloaded corpus group.
  const Group* group = nullptr;
  std::string group_name;
  /// <= 0: the service default applies.
  int64_t deadline_ms = 0;
  /// Engine override; nullopt = service default.
  std::optional<EngineKind> engine;
  /// Skip the cache entirely (no lookup, no insert) — for measurement.
  bool bypass_cache = false;
};

struct CheckReply {
  /// Never null. result->status is OK for a complete run and
  /// DEADLINE_EXCEEDED / CANCELLED / INTERNAL for a truncated or faulted
  /// one (partial results follow the engine contract in dime.h).
  std::shared_ptr<const DimeResult> result;
  bool cache_hit = false;
  /// The epoch this request was served under (pinned — the reply keeps
  /// it alive, so `group` below is safe to read). Never null.
  std::shared_ptr<const CorpusEpoch> epoch;
  /// The group that was checked: the caller's inline group, or the
  /// resolved corpus group owned by `epoch`.
  const Group* group = nullptr;
};

/// What a successful corpus swap published (InstallCorpus /
/// ReloadFromSnapshot / ApplyDeltaLog).
struct ReloadOutcome {
  uint64_t sequence = 0;  ///< the new epoch's sequence number
  uint64_t fingerprint_lo = 0;
  uint64_t fingerprint_hi = 0;
  size_t groups = 0;  ///< groups resident in the new epoch
  /// Delta records applied (ApplyDeltaLog only; 0 for snapshot reloads).
  size_t delta_records = 0;
  /// Groups this swap ran PrepareGroup on (ApplyDeltaLog only: the groups
  /// its records touched; 0 for snapshot reloads and InstallCorpus).
  size_t groups_prepared = 0;
  /// A truncated final record was dropped from the delta log (crash
  /// mid-append; the applied prefix is intact).
  bool torn_tail = false;
  /// Fingerprint-gated reload found the serving epoch already matching:
  /// nothing was loaded or installed, the fields above describe the
  /// epoch that keeps serving.
  bool noop = false;
};

/// The 128-bit content fingerprint in its canonical wire form: 32 hex
/// digits, high word first (the order log lines and dime_snapshot
/// inspect print) — exactly the "fingerprint" string a reload
/// response carries (see wire.h), so clients can echo it back verbatim
/// for a fingerprint-gated reload.
std::string FingerprintToWireHex(uint64_t lo, uint64_t hi);
/// Inverse; false unless `hex` is exactly 32 hex digits.
bool FingerprintFromWireHex(std::string_view hex, uint64_t* lo, uint64_t* hi);

/// Counter snapshot served by the "stats" request type.
struct StatsSnapshot {
  uint64_t accepted = 0;      ///< admitted: cache hits + queued requests
  uint64_t rejected = 0;      ///< shed with RESOURCE_EXHAUSTED
  uint64_t completed = 0;     ///< replies delivered (hits + engine runs)
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  size_t cache_size = 0;
  size_t cache_capacity = 0;
  size_t queue_depth = 0;
  size_t queue_capacity = 0;
  unsigned workers = 0;
  /// Live-corpus counters: sequence of the epoch currently serving,
  /// epochs published and fully retired (destroyed) over the service's
  /// lifetime, and delta records merged in via ApplyDeltaLog.
  uint64_t epoch_sequence = 0;
  uint64_t epochs_installed = 0;
  uint64_t epochs_retired = 0;
  uint64_t delta_records_applied = 0;
  /// Cumulative DimeResult::Stats counters over every engine run this
  /// service executed (cache hits add nothing — no engine ran).
  uint64_t pairs_skipped_by_transitivity = 0;
  uint64_t kernel_early_exits = 0;
  /// Admission-to-reply latency percentiles over completed requests, in
  /// milliseconds (log-linear histogram, within 6.25% of exact; see
  /// latency_histogram.h).
  double p50_ms = 0;
  double p99_ms = 0;
};

class DimeService {
 public:
  /// `corpus` becomes epoch 1.
  DimeService(ServingCorpus corpus, ServiceOptions options);
  /// Shuts down (drains admitted work) if Shutdown was not called.
  ~DimeService();

  DimeService(const DimeService&) = delete;
  DimeService& operator=(const DimeService&) = delete;

  /// Synchronous check: admits, waits for the reply. The Status arm is
  /// for requests that never executed — RESOURCE_EXHAUSTED (queue full),
  /// UNAVAILABLE (shutting down), NOT_FOUND (unknown group name),
  /// SCHEMA_MISMATCH (inline group disagrees with the corpus schema),
  /// INVALID_ARGUMENT (no group at all). Engine-level truncation is NOT
  /// an error arm: it lands in reply.result->status with partial results.
  StatusOr<CheckReply> Check(const CheckRequest& request);

  /// Callback flavour of Check, the primitive the event-loop transport
  /// builds on (event_loop.h): thousands of in-flight requests bounded
  /// by the admission queue, not by blocked threads. `done` is invoked
  /// EXACTLY once — inline (before CheckAsync returns) for cache hits
  /// and every never-admitted error arm, or later on a worker thread for
  /// queued work. It must not block and must not call back into the
  /// service. Anything `request.group` points at must stay alive until
  /// `done` fires.
  using CheckCallback = std::function<void(StatusOr<CheckReply>)>;
  void CheckAsync(const CheckRequest& request, CheckCallback done);

  StatsSnapshot Stats() const;

  /// Graceful drain: admitted requests finish, new ones get UNAVAILABLE.
  /// Idempotent; blocks until the workers exit.
  void Shutdown();

  /// Pins and returns the epoch currently serving. Never null.
  std::shared_ptr<const CorpusEpoch> CurrentEpoch() const;

  /// Publishes `corpus` as the next epoch: in-flight requests finish on
  /// the epoch they pinned, new requests see this one, and the old
  /// epoch is destroyed when its last pin drops. The result cache is
  /// kept: entries for unchanged content stay valid.
  ReloadOutcome InstallCorpus(ServingCorpus corpus);

  /// Loads `path` and installs it as the next epoch. On any load error
  /// the current epoch keeps serving untouched. Failpoint "store/swap"
  /// makes the reload fail (UNAVAILABLE) before anything is installed —
  /// the degradation path a watcher or admin reload must survive.
  ///
  /// `expected_fingerprint` (the coordinated-swap hook: 32 wire-hex
  /// digits from FingerprintToWireHex, empty = unconditional) gates the
  /// swap: if the SERVING epoch already carries that fingerprint the
  /// reload is a no-op success (outcome.noop, nothing loaded); if the
  /// snapshot at `path` carries a DIFFERENT fingerprint the reload fails
  /// INVALID_ARGUMENT without installing anything — a fleet rollout
  /// pushing "swap to build X" can never half-apply a stale file.
  StatusOr<ReloadOutcome> ReloadFromSnapshot(
      const std::string& path, const std::string& expected_fingerprint = "");

  /// Reads the delta log at `path` and installs the current epoch with its
  /// records applied as the next epoch (see delta_log.h). Only the groups
  /// a record names are copied, edited and re-prepared; every other
  /// prepared group is shared with the current epoch as it is
  /// (ResidentGroup), prepared form, content key and snapshot storage
  /// included. On any error — unreadable or corrupt log
  /// (DATA_LOSS), a record naming an unknown group or entity — nothing is
  /// installed and the current epoch keeps serving.
  ///
  /// With `rotate_applied`, the applied log is renamed aside to
  /// `<path>.applied.<sequence>` so its records are never merged twice —
  /// atomically with respect to live producers: the install+rotate only
  /// happens under the log's flock after verifying the log did not grow
  /// past the merged prefix (DeltaLogWriter::Append holds the same lock
  /// per record). A merge raced by appends is discarded and retried; the
  /// final attempt merges with the lock held, so producers wait instead
  /// of losing records. Callers (the watcher, the reload verb) must
  /// serialize rotating merges among themselves — the server's reload
  /// mutex does.
  StatusOr<ReloadOutcome> ApplyDeltaLog(const std::string& path,
                                        bool rotate_applied = false);

  const ServiceOptions& options() const { return options_; }

  /// The cache key for (engine, context key, group content key) under the
  /// current epoch — see result_cache.h. Exposed for tests.
  Fingerprint RequestFingerprint(EngineKind engine, const Group& group) const;
  /// Same, under an explicit epoch (what Check uses internally).
  Fingerprint RequestFingerprint(EngineKind engine, const Group& group,
                                 const CorpusEpoch& epoch) const;

 private:
  struct PendingCheck;

  /// One merge attempt: read, apply and re-prepare the touched groups,
  /// install. When `lock` is non-null the install is gated on quiescence
  /// (log size under the held lock == bytes read) and the applied log is
  /// rotated aside; `*grew_during_merge` reports a discarded attempt
  /// (nothing was installed) that the caller should retry.
  StatusOr<ReloadOutcome> ApplyDeltaLogAttempt(const std::string& path,
                                               DeltaLogLock* lock,
                                               bool* grew_during_merge);

  void WorkerLoop();
  /// Executes one admitted request end to end (engine + cache insert).
  CheckReply Execute(PendingCheck& pending);
  void RecordAdmitted() DIME_EXCLUDES(stats_mu_);
  void RecordRejected() DIME_EXCLUDES(stats_mu_);
  void RecordCompleted(Deadline::Clock::time_point admit_time)
      DIME_EXCLUDES(stats_mu_);
  void RecordEngineStats(const DimeResult& result) DIME_EXCLUDES(stats_mu_);

  const ServiceOptions options_;
  /// The shared work-stealing pool (created before, destroyed after, the
  /// serving workers that submit to it).
  std::unique_ptr<exec::WorkStealingPool> engine_pool_;
  EpochManager epochs_;

  ResultCache cache_;
  BoundedRequestQueue<std::unique_ptr<PendingCheck>> queue_;
  std::vector<std::thread> workers_;  // written only in ctor / Shutdown

  mutable Mutex shutdown_mu_;
  bool workers_joined_ DIME_GUARDED_BY(shutdown_mu_) = false;

  mutable Mutex stats_mu_;
  uint64_t accepted_ DIME_GUARDED_BY(stats_mu_) = 0;
  uint64_t rejected_ DIME_GUARDED_BY(stats_mu_) = 0;
  uint64_t completed_ DIME_GUARDED_BY(stats_mu_) = 0;
  uint64_t delta_records_applied_ DIME_GUARDED_BY(stats_mu_) = 0;
  /// Admission-to-reply latency of completed requests, in nanoseconds.
  LatencyHistogram latency_ns_ DIME_GUARDED_BY(stats_mu_);
  uint64_t engine_transitivity_skips_ DIME_GUARDED_BY(stats_mu_) = 0;
  uint64_t engine_kernel_exits_ DIME_GUARDED_BY(stats_mu_) = 0;
};

}  // namespace dime

#endif  // DIME_SERVER_SERVICE_H_
