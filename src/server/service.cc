#include "src/server/service.h"

#include <cstdio>
#include <exception>
#include <future>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "src/common/check.h"
#include "src/common/fault_injection.h"
#include "src/common/logging.h"

namespace dime {
namespace {

ServiceOptions NormalizeOptions(ServiceOptions options) {
  if (options.num_workers == 0) options.num_workers = 1;
  return options;
}

/// The result-cache key: (engine, context key, group content key).
Fingerprint CacheKey(EngineKind engine, const CorpusEpoch& epoch,
                     const Fingerprint& group_key) {
  return ContentHasher()
      .Field(EngineKindName(engine))
      .Key(epoch.context_key())
      .Key(group_key)
      .Finish();
}

}  // namespace

/// One admitted request, owned by the queue until a worker picks it up.
/// The deadline inside `control` is anchored at ADMISSION time, so time
/// spent waiting in the queue counts against it — a request that waited
/// out its whole budget is answered DEADLINE_EXCEEDED without touching
/// the engine. `epoch` is the generation pinned at admission: the worker
/// serves from it even if a swap lands while the request waits, and the
/// pin keeps `group` and `resident` valid when they point into the
/// epoch's corpus.
struct DimeService::PendingCheck {
  std::shared_ptr<const CorpusEpoch> epoch;
  const Group* group = nullptr;
  /// The epoch's resident form of `group`; null for an inline group.
  const ResidentGroup* resident = nullptr;
  EngineKind engine = EngineKind::kPlus;
  RunControl control;
  Fingerprint fp;
  bool cache_insert = true;
  Deadline::Clock::time_point admit_time;
  CheckCallback done;
};

DimeService::DimeService(ServingCorpus corpus, ServiceOptions options)
    : options_(NormalizeOptions(std::move(options))),
      engine_pool_(std::make_unique<exec::WorkStealingPool>(
          exec::PoolOptions{options_.engine_threads})),
      epochs_(options_.epoch_retire_hook),
      cache_(options_.cache_capacity),
      queue_(options_.queue_capacity) {
  epochs_.Install(std::move(corpus));
  workers_.reserve(options_.num_workers);
  for (unsigned i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

DimeService::~DimeService() { Shutdown(); }

void DimeService::Shutdown() {
  queue_.Close();
  MutexLock lock(&shutdown_mu_);
  if (workers_joined_) return;
  for (std::thread& worker : workers_) worker.join();
  workers_joined_ = true;
}

std::shared_ptr<const CorpusEpoch> DimeService::CurrentEpoch() const {
  return epochs_.Pin();
}

ReloadOutcome DimeService::InstallCorpus(ServingCorpus corpus) {
  // The result cache is left alone: keys hold no epoch identity, so
  // entries whose context and group content survive the swap keep
  // hitting, and entries for changed content simply stop matching.
  std::shared_ptr<const CorpusEpoch> epoch =
      epochs_.Install(std::move(corpus));
  ReloadOutcome outcome;
  outcome.sequence = epoch->sequence();
  outcome.fingerprint_lo = epoch->fingerprint_lo();
  outcome.fingerprint_hi = epoch->fingerprint_hi();
  outcome.groups = epoch->corpus().groups.size();
  return outcome;
}

std::string FingerprintToWireHex(uint64_t lo, uint64_t hi) {
  // hi word first: the same order every log line and dime_snapshot
  // inspect/build print, so a fingerprint copied from either pastes
  // straight into a gated reload.
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

bool FingerprintFromWireHex(std::string_view hex, uint64_t* lo, uint64_t* hi) {
  if (hex.size() != 32) return false;
  uint64_t words[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 16; ++i) {
      char c = hex[static_cast<size_t>(w * 16 + i)];
      uint64_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint64_t>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint64_t>(c - 'A') + 10;
      } else {
        return false;
      }
      words[w] = (words[w] << 4) | digit;
    }
  }
  *hi = words[0];
  *lo = words[1];
  return true;
}

StatusOr<ReloadOutcome> DimeService::ReloadFromSnapshot(
    const std::string& path, const std::string& expected_fingerprint) {
  uint64_t want_lo = 0;
  uint64_t want_hi = 0;
  const bool gated = !expected_fingerprint.empty();
  if (gated &&
      !FingerprintFromWireHex(expected_fingerprint, &want_lo, &want_hi)) {
    return InvalidArgumentError(
        "reload fingerprint '" + expected_fingerprint +
        "' is not 32 hex digits (expected the wire form a reload response "
        "carries)");
  }
  if (gated) {
    std::shared_ptr<const CorpusEpoch> current = epochs_.Pin();
    if (current->fingerprint_lo() == want_lo &&
        current->fingerprint_hi() == want_hi) {
      // The fleet-coordination fast path: this replica already serves the
      // requested build, so re-loading the file would only churn an
      // identical epoch for nothing.
      ReloadOutcome outcome;
      outcome.sequence = current->sequence();
      outcome.fingerprint_lo = current->fingerprint_lo();
      outcome.fingerprint_hi = current->fingerprint_hi();
      outcome.groups = current->corpus().groups.size();
      outcome.noop = true;
      return outcome;
    }
  }
  if (DIME_FAULT_POINT(failpoints::kStoreSwap)) {
    return UnavailableError(
        "injected fault at store/swap: reload of " + path +
        " abandoned before install");
  }
  StatusOr<LoadedSnapshot> loaded = LoadSnapshot(path);
  if (!loaded.ok()) return loaded.status();
  ServingCorpus corpus = CorpusFromSnapshot(std::move(loaded).value());
  if (gated && (corpus.content_fingerprint_lo != want_lo ||
                corpus.content_fingerprint_hi != want_hi)) {
    // The file on disk is not the build the coordinator asked for (a
    // stale or not-yet-pushed snapshot). Installing it would "succeed"
    // while silently serving the wrong content — refuse, keep serving
    // the current epoch.
    return InvalidArgumentError(
        "snapshot " + path + " has fingerprint " +
        FingerprintToWireHex(corpus.content_fingerprint_lo,
                             corpus.content_fingerprint_hi) +
        " but the reload requested " + expected_fingerprint +
        "; nothing was installed");
  }
  return InstallCorpus(std::move(corpus));
}

StatusOr<ReloadOutcome> DimeService::ApplyDeltaLog(const std::string& path,
                                                   bool rotate_applied) {
  bool grew = false;
  if (!rotate_applied) return ApplyDeltaLogAttempt(path, nullptr, &grew);
  // Merge-then-rotate must be atomic against live producers: a record
  // appended between the read and the rename would be rotated away
  // without ever being applied. Every DeltaLogWriter::Append holds the
  // log's flock, so a size check under the same lock proves quiescence.
  // The expensive part (re-preparing the touched groups) runs unlocked;
  // only the final attempt holds producers off for the whole merge,
  // which guarantees progress under continuous append load.
  constexpr int kMergeAttempts = 3;
  for (int attempt = 0; attempt < kMergeAttempts; ++attempt) {
    DeltaLogLock lock;
    if (attempt == kMergeAttempts - 1) {
      Status held = lock.Acquire(path);
      if (!held.ok()) return held;
    }
    grew = false;
    StatusOr<ReloadOutcome> merged = ApplyDeltaLogAttempt(path, &lock, &grew);
    if (!grew) return merged;
  }
  // Unreachable: the locked final attempt cannot observe growth.
  return InternalError("delta log merge never converged");
}

StatusOr<ReloadOutcome> DimeService::ApplyDeltaLogAttempt(
    const std::string& path, DeltaLogLock* lock, bool* grew_during_merge) {
  StatusOr<DeltaLogContents> log = ReadDeltaLog(path);
  if (!log.ok()) return log.status();

  std::shared_ptr<const CorpusEpoch> base = epochs_.Pin();
  const ServingCorpus& old = base->corpus();

  // Every record must name a resident group, or the merge is refused
  // whole: a half-applied log must never become an epoch.
  for (size_t r = 0; r < log->records.size(); ++r) {
    if (base->FindGroup(log->records[r].group) == nullptr) {
      return NotFoundError("delta record " + std::to_string(r) +
                           " names unknown group '" + log->records[r].group +
                           "'");
    }
  }

  ServingCorpus next;
  next.schema = old.schema;
  next.positive = old.positive;
  next.negative = old.negative;
  next.context = old.context;
  // Rules, schema and ontologies are the base's, so its context key
  // carries over too.
  next.rules_text = old.rules_text;
  next.context_key = old.context_key;

  // A group is checked on its own (Algorithms 1 and 2 read only the
  // group, the rules and the ontologies), so a group no record names
  // cannot change: the merged epoch shares it as it is. Only the named
  // groups are copied, edited and re-prepared, so the merged epoch serves
  // fully warm, exactly like a snapshot load.
  std::unordered_set<std::string_view> touched;
  for (const DeltaRecord& record : log->records) touched.insert(record.group);
  size_t applied_total = 0;
  size_t prepared_total = 0;
  next.groups.reserve(old.groups.size());
  for (const std::shared_ptr<const ResidentGroup>& resident : old.groups) {
    if (touched.count(resident->group().name) == 0) {
      next.groups.push_back(resident);
      continue;
    }
    Group group = resident->group();  // a copy — the records edit it
    size_t applied = 0;
    Status status = ApplyDeltaRecords(log->records, &group, &applied);
    if (!status.ok()) return status;
    applied_total += applied;
    next.groups.push_back(ResidentGroup::Prepare(
        std::move(group), next.positive, next.negative, next.context));
    ++prepared_total;
  }

  if (lock != nullptr) {
    if (!lock->held()) {
      if (options_.delta_merge_race_hook) options_.delta_merge_race_hook();
      Status held = lock->Acquire(path);
      if (!held.ok()) return held;
    }
    StatusOr<uint64_t> size_now = lock->SizeNow();
    if (!size_now.ok()) return size_now.status();
    if (*size_now != log->file_bytes) {
      // A producer appended while we merged: rotating now would discard
      // its acknowledged records unapplied. Throw this merge away and
      // redo it from the grown log. (A torn tail from a LIVE writer also
      // lands here — its append finishes before we can hold the lock —
      // so a torn tail that survives to the install below is a crashed
      // producer, safe to drop.)
      *grew_during_merge = true;
      return InternalError("delta log grew during merge");
    }
  }

  ReloadOutcome outcome = InstallCorpus(std::move(next));
  outcome.delta_records = applied_total;
  outcome.groups_prepared = prepared_total;
  outcome.torn_tail = log->torn_tail;
  {
    MutexLock stats_lock(&stats_mu_);
    delta_records_applied_ += applied_total;
  }
  if (lock != nullptr) {
    Status rotated = lock->RotateTo(path + ".applied." +
                                    std::to_string(outcome.sequence));
    if (!rotated.ok()) {
      DIME_LOG(WARNING) << rotated.ToString()
                        << " (the merged epoch is installed and serving)";
    }
  }
  return outcome;
}

Fingerprint DimeService::RequestFingerprint(EngineKind engine,
                                            const Group& group) const {
  return RequestFingerprint(engine, group, *epochs_.Pin());
}

Fingerprint DimeService::RequestFingerprint(EngineKind engine,
                                            const Group& group,
                                            const CorpusEpoch& epoch) const {
  return CacheKey(engine, epoch, epoch.GroupKey(group));
}

StatusOr<CheckReply> DimeService::Check(const CheckRequest& request) {
  // `done` always fires before the worker releases the PendingCheck (or
  // inline below), so the promise outlives every use of the reference.
  std::promise<StatusOr<CheckReply>> promise;
  std::future<StatusOr<CheckReply>> reply = promise.get_future();
  CheckAsync(request, [&promise](StatusOr<CheckReply> r) {
    promise.set_value(std::move(r));
  });
  return reply.get();
}

void DimeService::CheckAsync(const CheckRequest& request, CheckCallback done) {
  // Admission starts here, so the service's own latency counts group
  // resolution and the cache key too.
  Deadline::Clock::time_point admit_time = Deadline::Clock::now();
  std::shared_ptr<const CorpusEpoch> epoch = epochs_.Pin();
  const Group* group = request.group;
  const ResidentGroup* resident = nullptr;
  if (group == nullptr) {
    if (request.group_name.empty()) {
      done(InvalidArgumentError(
          "check request names no group (inline group or group_name "
          "required)"));
      return;
    }
    // Resolved against the epoch pinned above — never against a corpus
    // that a concurrent swap might retire under us.
    resident = epoch->FindResident(request.group_name);
    if (resident == nullptr) {
      done(NotFoundError("unknown group '" + request.group_name + "'"));
      return;
    }
    group = &resident->group();
  } else if (group->schema.attribute_names() !=
             epoch->corpus().schema.attribute_names()) {
    done(SchemaMismatchError(
        "inline group schema does not match the serving corpus schema"));
    return;
  } else {
    // An "inline" group may be one of the epoch's own (in-process
    // callers): serve it from its resident form like a named request.
    resident = epoch->ResidentOf(*group);
  }

  EngineKind engine = request.engine.value_or(options_.default_engine);
  Fingerprint fp =
      CacheKey(engine, *epoch,
               resident != nullptr ? resident->content_key()
                                   : GroupContentKey(*group));

  if (!request.bypass_cache) {
    if (std::shared_ptr<const DimeResult> hit = cache_.Lookup(fp)) {
      RecordAdmitted();
      RecordCompleted(admit_time);
      done(CheckReply{std::move(hit), /*cache_hit=*/true, std::move(epoch),
                      group});
      return;
    }
  }

  auto pending = std::make_unique<PendingCheck>();
  pending->epoch = std::move(epoch);
  pending->group = group;
  pending->resident = resident;
  pending->engine = engine;
  int64_t deadline_ms = request.deadline_ms > 0 ? request.deadline_ms
                                                : options_.default_deadline_ms;
  if (deadline_ms > 0) {
    pending->control.deadline = Deadline::AfterMillis(deadline_ms);
  }
  pending->fp = fp;
  pending->cache_insert = !request.bypass_cache;
  pending->admit_time = admit_time;
  pending->done = std::move(done);

  // A rejected TryPush leaves `pending` (and the callback inside it) with
  // us, so the shed arms below can still answer the caller.
  switch (queue_.TryPush(std::move(pending))) {
    case QueuePushResult::kAccepted:
      RecordAdmitted();
      return;
    case QueuePushResult::kFull:
      RecordRejected();
      pending->done(ResourceExhaustedError(
          "request queue full (capacity " + std::to_string(queue_.capacity()) +
          "); retry later"));
      return;
    case QueuePushResult::kClosed:
      pending->done(UnavailableError("service is shutting down"));
      return;
  }
}

void DimeService::WorkerLoop() {
  while (std::optional<std::unique_ptr<PendingCheck>> item =
             queue_.BlockingPop()) {
    std::unique_ptr<PendingCheck>& pending = *item;
    if (options_.worker_pre_run_hook) options_.worker_pre_run_hook();
    CheckReply reply = Execute(*pending);
    RecordCompleted(pending->admit_time);
    // Drop the worker's epoch pin BEFORE answering: the reply carries its
    // own, so once the caller lets go of the reply nothing here keeps a
    // superseded epoch alive (a caller that checks retirement right after
    // its last reply must not race this thread's cleanup).
    CheckCallback done = std::move(pending->done);
    pending.reset();
    done(std::move(reply));
  }
}

CheckReply DimeService::Execute(PendingCheck& pending) {
  const ServingCorpus& corpus = pending.epoch->corpus();
  Status admitted = pending.control.Check("server/worker-start");
  if (!admitted.ok()) {
    // The deadline ran out while the request sat in the queue: answer
    // with an empty-but-valid result, one empty scrollbar prefix per
    // negative rule, as an engine that expires before step 1 does.
    auto expired = std::make_shared<const DimeResult>(
        internal::NoPartitionsResult(std::move(admitted),
                                     corpus.negative.size()));
    return CheckReply{std::move(expired), false, pending.epoch,
                      pending.group};
  }

  auto result = std::make_shared<DimeResult>();
  // A resident server must confine a faulting request to that request:
  // capture anything the engines throw (e.g. bad_alloc on a pathological
  // group) as an INTERNAL result instead of unwinding through the pool.
  try {
    // Resident groups were prepared when their corpus was built; only an
    // inline group is prepared here, for this request alone.
    PreparedGroup inline_prepared;
    if (pending.resident == nullptr) {
      inline_prepared = PrepareGroup(*pending.group, corpus.positive,
                                     corpus.negative, corpus.context);
    }
    const PreparedGroup& pg = pending.resident == nullptr
                                  ? inline_prepared
                                  : pending.resident->prepared();
    exec::ShardedOptions engine_options;
    engine_options.pool = engine_pool_.get();
    *result = exec::RunEngine(pending.engine, pg, corpus.positive,
                              corpus.negative, engine_options,
                              pending.control);
  } catch (const std::exception& e) {
    *result = internal::NoPartitionsResult(
        InternalError(std::string("engine fault: ") + e.what()),
        corpus.negative.size());
  } catch (...) {
    *result = internal::NoPartitionsResult(
        InternalError("engine fault: unknown exception"),
        corpus.negative.size());
  }

  RecordEngineStats(*result);
  std::shared_ptr<const DimeResult> shared = std::move(result);
  if (pending.cache_insert && shared->status.ok()) {
    cache_.Insert(pending.fp, shared);
  }
  return CheckReply{std::move(shared), false, pending.epoch, pending.group};
}

void DimeService::RecordEngineStats(const DimeResult& result) {
  MutexLock lock(&stats_mu_);
  engine_transitivity_skips_ += result.stats.pairs_skipped_by_transitivity;
  engine_kernel_exits_ += result.stats.kernel_early_exits;
}

void DimeService::RecordAdmitted() {
  MutexLock lock(&stats_mu_);
  ++accepted_;
}

void DimeService::RecordRejected() {
  MutexLock lock(&stats_mu_);
  ++rejected_;
}

void DimeService::RecordCompleted(Deadline::Clock::time_point admit_time) {
  uint64_t nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Deadline::Clock::now() - admit_time)
          .count());
  MutexLock lock(&stats_mu_);
  ++completed_;
  latency_ns_.Record(nanos);
}

StatsSnapshot DimeService::Stats() const {
  StatsSnapshot s;
  ResultCache::Counters cache = cache_.counters();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  s.cache_size = cache.size;
  s.cache_capacity = cache_.capacity();
  s.queue_depth = queue_.size();
  s.queue_capacity = queue_.capacity();
  s.workers = options_.num_workers;
  s.epoch_sequence = epochs_.current_sequence();
  s.epochs_installed = epochs_.installed();
  s.epochs_retired = epochs_.retired();
  MutexLock lock(&stats_mu_);
  s.accepted = accepted_;
  s.rejected = rejected_;
  s.completed = completed_;
  s.delta_records_applied = delta_records_applied_;
  s.pairs_skipped_by_transitivity = engine_transitivity_skips_;
  s.kernel_early_exits = engine_kernel_exits_;
  s.p50_ms = latency_ns_.Percentile(0.50) / 1e6;
  s.p99_ms = latency_ns_.Percentile(0.99) / 1e6;
  return s;
}

}  // namespace dime
