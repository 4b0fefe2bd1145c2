// dime_server: the resident DIME service. Loads a corpus (rules +
// ontologies + optional preloaded groups) ONCE and answers repeated
// "check group G" requests over the line-delimited JSON protocol of
// src/server/wire.h on a TCP socket.
//
// Usage:
//   dime_server --demo [--demo-pages N]           # generated Scholar corpus
//   dime_server --snapshot corpus.snap            # warm start (dime_snapshot)
//   dime_server --group page.tsv [--group ...] --rules rules.txt
//               [--venue-ontology]
//               [--ontology tree.txt [--ontology-mode exact|keyword]]...
//
// --group, --rules and the ontology flags are read by the loader of
// src/core/corpus.h, which dime_snapshot build, dime_cli and dime_delta
// replay share: the same grammar, refused with the same exit codes (a
// missing file 3, a malformed one 5, a group of another schema or invalid
// rules 2). Every preloaded group (--group or --demo) is prepared at
// startup; only a group sent inline is prepared per request.
//
// --snapshot may be combined with --demo or --group/--rules: a snapshot
// that fails to load (corrupt, truncated, another format version) logs a
// warning and the server degrades to the TSV/demo corpus instead of
// crashing; with no fallback source the load error is fatal.
//   common flags:
//               [--host 127.0.0.1] [--port 0]     # port 0 = ephemeral
//               [--workers N] [--queue-cap N] [--cache-cap N]
//               [--threads N]  # engine pool size (default: DIME_THREADS
//                              # env, then hardware concurrency); "plus"
//                              # runs groups of 8192+ entities on it
//               [--default-deadline-ms N]
//               [--engine naive|plus]
//               [--idle-timeout-ms N]
//   live corpus (see DESIGN.md "Live corpus & epochs"):
//               [--watch] [--watch-interval-ms N]  # poll --snapshot for a
//                                                  # fingerprint change and
//                                                  # swap the new file in
//               [--delta-log log.dlt]              # apply pending deltas on
//                                                  # reload / past threshold
//               [--delta-threshold-bytes N]
//
// The corpus is served through refcounted epochs (src/store/epoch.h): a
// reload — from the admin {"type":"reload"} verb, the --watch poller, or
// a delta-log merge — publishes a new epoch atomically. In-flight
// requests finish on the epoch they started on; a reload that fails
// leaves the last good epoch serving (logged warning, never a crash).
//
// On startup the server prints exactly one line
//   dime_server listening on <host>:<port>
// to stdout (flushed), so scripts can scrape the bound port when using
// --port 0. It exits 0 after a clean {"type":"shutdown"} round trip OR a
// SIGTERM/SIGINT (stop accepting, drain admitted work, flush stats);
// failures exit with the Status-coded mapping of src/common/exit_code.h.
//
// Smoke test from a shell (see also `dime_cli --client`):
//   dime_server --demo --port 7421 &
//   dime_cli --client --port 7421 --request ping

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/exit_code.h"
#include "src/common/logging.h"
#include "src/common/mutex.h"
#include "src/common/string_util.h"
#include "src/common/threads.h"
#include "src/core/corpus.h"
#include "src/datagen/presets.h"
#include "src/server/event_loop.h"
#include "src/server/net_util.h"
#include "src/store/delta_log.h"
#include "src/store/snapshot.h"

namespace {

using namespace dime;

int Usage(const char* msg) {
  std::fprintf(stderr, "dime_server: %s (run with --help for usage)\n", msg);
  return ExitCodeForStatusCode(StatusCode::kInvalidArgument);
}

constexpr uint64_t kMaxSize = std::numeric_limits<size_t>::max();

/// The value of numeric flag `flag`, which must be an integer in
/// [0, max]; anything else exits INVALID_ARGUMENT with the usage hint.
uint64_t FlagValue(const std::string& flag, const char* value, uint64_t max) {
  StatusOr<uint64_t> parsed = ParseUintFlag(flag, value, 0, max);
  if (!parsed.ok()) std::exit(Usage(parsed.status().message().c_str()));
  return *parsed;
}

/// Shared between the wire "reload" handler and the --watch poller.
struct LiveCorpusState {
  DimeService* service = nullptr;
  std::string snapshot_path;   ///< empty: no snapshot source
  std::string delta_log_path;  ///< empty: no delta source

  /// Serializes every epoch-producing operation — the wire reload
  /// handler (transport threads) and the watcher poller — across the
  /// whole reload/merge/rotate sequence. Without it, a slow delta merge
  /// pinned to an older epoch could Install after a concurrent snapshot
  /// reload and win by sequence while loaded_fp_* already records the
  /// new file as loaded — the stale corpus would serve until restart.
  Mutex reload_mu;

  Mutex mu;
  /// Fingerprint of the snapshot FILE last loaded (not the serving
  /// epoch's — a delta merge moves the epoch fingerprint past the
  /// file's, and the watcher must not re-load an unchanged file).
  uint64_t loaded_fp_lo DIME_GUARDED_BY(mu) = 0;
  uint64_t loaded_fp_hi DIME_GUARDED_BY(mu) = 0;
  /// Set at shutdown, which signals `watch_cv` to end the watcher's wait.
  bool watch_stop DIME_GUARDED_BY(mu) = false;
  CondVar watch_cv;
};

uint64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

/// The full reload sequence: re-read the snapshot (when configured),
/// then merge any pending delta log on top. Any failure leaves the last
/// good epoch serving; a bad delta log after a good snapshot load keeps
/// the snapshot epoch (logged, degraded, never crashed). The merged log
/// is rotated aside inside ApplyDeltaLog, under the log's lock, so live
/// producers never lose a record (see service.h).
///
/// `fingerprint` is the request's optional expected content fingerprint
/// (see wire.h). A fingerprint-gated reload is a COORDINATED swap to one
/// exact corpus, so it is snapshot-only: merging a delta log on top
/// would change the content fingerprint past the one the coordinator
/// asked for.
StatusOr<ReloadOutcome> ReloadSources(LiveCorpusState* state,
                                      const std::string& fingerprint) {
  MutexLock reload_lock(&state->reload_mu);
  StatusOr<ReloadOutcome> outcome =
      InvalidArgumentError("no corpus source to reload");
  bool have_snapshot_epoch = false;
  if (!fingerprint.empty() && state->snapshot_path.empty()) {
    return InvalidArgumentError(
        "a fingerprint-gated reload needs a snapshot source (started "
        "without --snapshot)");
  }
  if (!state->snapshot_path.empty()) {
    outcome =
        state->service->ReloadFromSnapshot(state->snapshot_path, fingerprint);
    if (!outcome.ok()) return outcome;
    have_snapshot_epoch = true;
    if (!outcome->noop) {
      MutexLock lock(&state->mu);
      state->loaded_fp_lo = outcome->fingerprint_lo;
      state->loaded_fp_hi = outcome->fingerprint_hi;
    }
  }
  if (!fingerprint.empty()) return outcome;
  if (!state->delta_log_path.empty() &&
      FileSize(state->delta_log_path) > kDeltaLogHeaderSize) {
    StatusOr<ReloadOutcome> merged = state->service->ApplyDeltaLog(
        state->delta_log_path, /*rotate_applied=*/true);
    if (merged.ok()) {
      if (merged->torn_tail) {
        DIME_LOG(WARNING) << "delta log " << state->delta_log_path
                          << " had a torn final record (dropped; the "
                             "applied prefix is intact)";
      }
      return merged;
    }
    if (have_snapshot_epoch) {
      DIME_LOG(WARNING) << "delta log " << state->delta_log_path
                        << " unusable (" << merged.status().ToString()
                        << "); serving the snapshot epoch without it";
      return outcome;
    }
    return merged;
  }
  return outcome;
}

/// The watcher's delta-only trigger: merge and rotate without re-reading
/// an unchanged snapshot, serialized with every other epoch-producing
/// operation.
StatusOr<ReloadOutcome> MergeDeltaLog(LiveCorpusState* state) {
  MutexLock reload_lock(&state->reload_mu);
  return state->service->ApplyDeltaLog(state->delta_log_path,
                                       /*rotate_applied=*/true);
}

/// Self-pipe for SIGTERM/SIGINT: the handler only write()s (async-signal
/// safe); a helper thread turns the byte into
/// EventLoopServer::RequestShutdown so the server drains through the same
/// path as a wire shutdown.
int g_signal_pipe_write = -1;

extern "C" void HandleTermSignal(int signo) {
  unsigned char byte = static_cast<unsigned char>(signo);
  if (g_signal_pipe_write >= 0) {
    [[maybe_unused]] ssize_t n = ::write(g_signal_pipe_write, &byte, 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  size_t demo_pages = 4;
  std::string snapshot_path;
  CorpusSources sources;
  bool watch = false;
  int watch_interval_ms = 500;
  std::string delta_log_path;
  uint64_t delta_threshold_bytes = 4096;
  EventLoopServerOptions transport;
  ServiceOptions options;

  for (int i = 1; i < argc; ++i) {
    StatusOr<bool> corpus_flag = ParseCorpusFlag(argc, argv, &i, &sources);
    if (!corpus_flag.ok()) return Usage(corpus_flag.status().message().c_str());
    if (*corpus_flag) continue;
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", arg.c_str());
        std::exit(ExitCodeForStatusCode(StatusCode::kInvalidArgument));
      }
      return argv[++i];
    };
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--snapshot") {
      snapshot_path = next();
    } else if (arg == "--demo-pages") {
      demo_pages = FlagValue(arg, next(), kMaxDemoPages);
    } else if (arg == "--group") {
      sources.group_paths.push_back(next());
    } else if (arg == "--watch") {
      watch = true;
    } else if (arg == "--watch-interval-ms") {
      watch_interval_ms =
          static_cast<int>(FlagValue(arg, next(), kMaxFlagMillis));
      if (watch_interval_ms < 10) watch_interval_ms = 10;
    } else if (arg == "--delta-log") {
      delta_log_path = next();
    } else if (arg == "--delta-threshold-bytes") {
      delta_threshold_bytes =
          FlagValue(arg, next(), std::numeric_limits<uint64_t>::max());
    } else if (arg == "--host") {
      transport.host = next();
    } else if (arg == "--port") {
      transport.port = static_cast<int>(FlagValue(arg, next(), kMaxPort));
    } else if (arg == "--workers") {
      options.num_workers =
          static_cast<unsigned>(FlagValue(arg, next(), kMaxThreads));
    } else if (arg == "--threads") {
      options.engine_threads =
          static_cast<unsigned>(FlagValue(arg, next(), kMaxThreads));
    } else if (arg == "--queue-cap") {
      options.queue_capacity = FlagValue(arg, next(), kMaxSize);
    } else if (arg == "--cache-cap") {
      options.cache_capacity = FlagValue(arg, next(), kMaxSize);
    } else if (arg == "--default-deadline-ms") {
      options.default_deadline_ms =
          static_cast<int64_t>(FlagValue(arg, next(), kMaxFlagMillis));
    } else if (arg == "--engine") {
      EngineKind kind;
      if (!EngineKindFromName(next(), &kind)) {
        return Usage(
            ("--engine must be one of " + EngineKindNames(", ")).c_str());
      }
      options.default_engine = kind;
    } else if (arg == "--idle-timeout-ms") {
      transport.idle_timeout_ms =
          static_cast<int>(FlagValue(arg, next(), kMaxFlagMillis));
    } else if (arg == "--max-connections") {
      transport.max_connections = FlagValue(arg, next(), kMaxSize);
    } else if (arg == "--help") {
      std::printf(
          "dime_server --demo | --snapshot <file> | --group <tsv>... "
          "--rules <file>\n"
          "  [--venue-ontology] [--ontology <tree> [--ontology-mode "
          "exact|keyword]]...\n"
          "  [--host H] [--port N] [--workers N] [--threads N]\n"
          "  [--queue-cap N]\n"
          "  [--cache-cap N] [--default-deadline-ms N] [--engine %s]\n"
          "  [--idle-timeout-ms N] [--max-connections N] [--demo-pages N]\n"
          "  [--watch] [--watch-interval-ms N]\n"
          "  [--delta-log <file>] [--delta-threshold-bytes N]\n",
          EngineKindNames("|").c_str());
      return 0;
    } else {
      return Usage(("unknown flag: " + arg).c_str());
    }
  }
  if (watch && snapshot_path.empty()) {
    return Usage("--watch needs --snapshot (it polls that file)");
  }

  ServingCorpus corpus;
  bool warm_started = false;
  if (!snapshot_path.empty()) {
    StatusOr<LoadedSnapshot> loaded = LoadSnapshot(snapshot_path);
    if (loaded.ok()) {
      const bool mapped = loaded->mapped;
      corpus = CorpusFromSnapshot(std::move(loaded).value());
      warm_started = true;
      std::printf("dime_server: warm start from %s (%s, fingerprint "
                  "%016llx%016llx)\n",
                  snapshot_path.c_str(),
                  mapped ? "mmap" : "read fallback",
                  static_cast<unsigned long long>(
                      corpus.content_fingerprint_hi),
                  static_cast<unsigned long long>(
                      corpus.content_fingerprint_lo));
    } else if (demo || !sources.group_paths.empty()) {
      // Degrade, never crash: a damaged snapshot costs the warm start,
      // not the service.
      std::fprintf(stderr,
                   "dime_server: WARNING: snapshot %s unusable (%s); "
                   "falling back to TSV ingestion\n",
                   snapshot_path.c_str(),
                   loaded.status().ToString().c_str());
    } else {
      return ExitWithStatus(loaded.status(),
                            ("loading snapshot " + snapshot_path).c_str());
    }
  }
  if (warm_started) {
    // Snapshot wins; any --demo/--group/--rules were only the fallback.
  } else if (demo) {
    if (!sources.group_paths.empty() || !sources.rules_path.empty()) {
      return Usage("--demo and --group/--rules are mutually exclusive");
    }
    corpus = PrepareCorpus(MakeDemoCorpus(demo_pages));
  } else {
    if (sources.group_paths.empty()) {
      return Usage("need --demo, --snapshot, or at least one --group");
    }
    if (sources.rules_path.empty()) return Usage("need --rules with --group");
    StatusOr<Corpus> loaded = LoadCorpus(sources);
    if (!loaded.ok()) return ExitWithStatus(loaded.status(), "startup");
    corpus = PrepareCorpus(std::move(loaded).value());
  }

  const uint64_t boot_fp_lo = corpus.content_fingerprint_lo;
  const uint64_t boot_fp_hi = corpus.content_fingerprint_hi;
  DimeService service(std::move(corpus), options);

  LiveCorpusState live;
  live.service = &service;
  live.snapshot_path = warm_started || !snapshot_path.empty()
                           ? snapshot_path
                           : std::string();
  live.delta_log_path = delta_log_path;
  {
    MutexLock lock(&live.mu);
    live.loaded_fp_lo = boot_fp_lo;
    live.loaded_fp_hi = boot_fp_hi;
  }
  if (!live.snapshot_path.empty() || !live.delta_log_path.empty()) {
    transport.hooks.reload_handler = [&live](const std::string& fingerprint) {
      return ReloadSources(&live, fingerprint);
    };
  }

  EventLoopServer server(&service, transport);
  Status started = server.Start();
  if (!started.ok()) return ExitWithStatus(started, "startup");

  // Graceful SIGTERM/SIGINT: handler writes one byte to a pipe; the
  // helper thread requests shutdown, and main drains exactly like a wire
  // shutdown (stop accepting, drain admitted work, flush stats, exit 0).
  int signal_pipe[2] = {-1, -1};
  std::thread signal_thread;
  if (::pipe(signal_pipe) == 0) {
    g_signal_pipe_write = signal_pipe[1];
    std::signal(SIGTERM, HandleTermSignal);
    std::signal(SIGINT, HandleTermSignal);
    signal_thread = std::thread([&server, fd = signal_pipe[0]] {
      unsigned char byte = 0;
      while (true) {
        ssize_t n = ::read(fd, &byte, 1);
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      if (byte != 0) {
        std::fprintf(stderr, "dime_server: caught signal %d; draining\n",
                     static_cast<int>(byte));
      }
      server.RequestShutdown();
    });
  }

  // --watch: poll the snapshot file's tail fingerprint (InspectSnapshot
  // validates header/tail without parsing payloads — cheap) and swap a
  // changed file in; also merge the delta log once it crosses the size
  // threshold (the "recompute in bulk" trigger).
  std::thread watcher;
  if (watch || (!delta_log_path.empty() && !live.snapshot_path.empty()) ||
      (!delta_log_path.empty() && demo)) {
    watcher = std::thread([&] {
      uint64_t last_bad_delta_size = 0;
      while (true) {
        {
          MutexLock lock(&live.mu);
          const auto due = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(watch_interval_ms);
          // WaitFor is false once `due` has passed; a wakeup re-checks.
          while (!live.watch_stop &&
                 live.watch_cv.WaitFor(
                     &live.mu, due - std::chrono::steady_clock::now())) {
          }
          if (live.watch_stop) break;
        }
        bool snapshot_changed = false;
        if (watch && !live.snapshot_path.empty()) {
          StatusOr<SnapshotInfo> info = InspectSnapshot(live.snapshot_path);
          if (info.ok()) {
            MutexLock lock(&live.mu);
            snapshot_changed = info->fingerprint_lo != live.loaded_fp_lo ||
                               info->fingerprint_hi != live.loaded_fp_hi;
          }
        }
        uint64_t delta_size =
            live.delta_log_path.empty() ? 0 : FileSize(live.delta_log_path);
        bool delta_ready =
            delta_size >= kDeltaLogHeaderSize + delta_threshold_bytes &&
            delta_size != last_bad_delta_size;
        if (!snapshot_changed && !delta_ready) continue;
        StatusOr<ReloadOutcome> outcome =
            snapshot_changed ? ReloadSources(&live, /*fingerprint=*/"")
                             : MergeDeltaLog(&live);
        if (outcome.ok()) {
          last_bad_delta_size = 0;
          std::printf("dime_server: swapped in epoch %llu (%zu group(s), "
                      "%zu delta record(s), %zu group(s) prepared)\n",
                      static_cast<unsigned long long>(outcome->sequence),
                      outcome->groups, outcome->delta_records,
                      outcome->groups_prepared);
          std::fflush(stdout);
        } else {
          // Degrade: the last good epoch keeps serving. Remember the
          // failing delta size so an unchanged bad log warns once, not
          // once per poll.
          if (delta_ready) last_bad_delta_size = delta_size;
          DIME_LOG(WARNING)
              << "live reload failed (" << outcome.status().ToString()
              << "); serving last good epoch "
              << service.Stats().epoch_sequence;
        }
      }
    });
  }

  std::printf("dime_server listening on %s:%d\n", transport.host.c_str(),
              server.port());
  {
    std::shared_ptr<const CorpusEpoch> epoch = service.CurrentEpoch();
    std::printf(
        "  corpus: %zu preloaded group(s), %zu positive / %zu negative "
        "rule(s); workers=%u queue=%zu cache=%zu engine=%s\n",
        epoch->corpus().groups.size(), epoch->corpus().positive.size(),
        epoch->corpus().negative.size(), service.options().num_workers,
        service.options().queue_capacity, service.options().cache_capacity,
        EngineKindName(service.options().default_engine));
  }
  std::fflush(stdout);

  server.Wait();  // until a shutdown request or SIGTERM/SIGINT

  {
    MutexLock lock(&live.mu);
    live.watch_stop = true;
  }
  live.watch_cv.SignalAll();
  if (signal_thread.joinable()) {
    // Wake the helper if no signal ever arrived (byte 0 = not a signal).
    unsigned char zero = 0;
    [[maybe_unused]] ssize_t n = ::write(signal_pipe[1], &zero, 1);
    signal_thread.join();
  }
  server.Stop();
  service.Shutdown();
  if (watcher.joinable()) watcher.join();
  if (signal_pipe[0] >= 0) {
    g_signal_pipe_write = -1;
    ::close(signal_pipe[0]);
    ::close(signal_pipe[1]);
  }

  StatsSnapshot stats = service.Stats();
  std::printf(
      "dime_server: clean shutdown (accepted=%llu rejected=%llu "
      "cache_hits=%llu cache_misses=%llu epochs=%llu)\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_misses),
      static_cast<unsigned long long>(stats.epochs_installed));
  return 0;
}
