// dime_cli: discover mis-categorized entities in a TSV group file.
//
// Usage:
//   dime_cli <group.tsv> --positive "<rule>" [--positive ...]
//                        --negative "<rule>" [--negative ...]
//                        [--rules <ruleset.txt>]
//                        [--engine naive|plus]
//                        [--threads <n>] [--venue-ontology]
//                        [--ontology <tree.txt>
//                         [--ontology-mode exact|keyword]]...
//                        [--deadline-ms <n>] [--stats]
//
// The group, --rules and the ontology flags follow the source grammar of
// src/core/corpus.h, shared with dime_server, dime_snapshot build and
// dime_delta replay; --positive/--negative rules follow the --rules file's.
//
// Snapshot mode — run over a prepared binary snapshot (dime_snapshot):
//   dime_cli --snapshot <corpus.snap> [--group-name <name>]
//            [--engine naive|plus] [--threads <n>]
//            [--deadline-ms <n>] [--stats]
// Loads the corpus without re-running PrepareGroup (the snapshot holds
// the meta, rules, ontologies, groups and each group's prepared columns;
// the engine generates signatures and builds its indexes per run) and
// checks the named group (default: the first one).
//
// Client mode — one request to a running dime_server, then exit:
//   dime_cli --client --port <n> [--host 127.0.0.1] [group.tsv]
//            [--request check|stats|ping|shutdown|reload]
//            [--group-name <name>] [--fingerprint <hex>]
//            [--deadline-ms <n>] [--engine e] [--no-cache]
//            [--timeout-ms <n>] [--id <s>] [--no-retry] [--http]
// --http speaks the HTTP/1.1 front door (POST /v1/check etc., see
// src/server/http.h) instead of the line protocol, through the same
// retry/backoff path; the printed line is the response BODY, which is
// the identical wire.h JSON either way. --fingerprint gates a reload on
// an expected content fingerprint (32 hex digits, as a prior reload
// response reported).
// The raw response line is printed to stdout and the process exits with
// the Status-coded exit code of the response's "status" field (see
// src/common/exit_code.h) — so shell scripts can branch on exactly what
// the server answered. An unreachable server (connection refused — e.g.
// the race between starting dime_server and its first accept) is retried
// up to 3 times with jittered exponential backoff before exiting
// UNAVAILABLE (11); --no-retry fails fast on the first refusal.
//
// --deadline-ms bounds the run: on expiry the scrollbar computed so far is
// printed (still monotone, a subset of the full answer) with a note, and
// the process exits DEADLINE_EXCEEDED (7).
//
// --stats prints the engine's work counters (DimeResult::Stats) after the
// scrollbar — pair checks, filter survivors, transitivity skips and
// kernel early exits — so rule and engine choices can be compared without
// a profiler.
//
// --engine plus runs DIME+ on one executor below 8192 entities and on a
// pool of --threads executors from there up; the decisions never depend
// on the thread count, but on a pool of several threads the split of
// step-1 work between pair checks and transitivity skips does.
//
// All exit codes follow the single mapping in src/common/exit_code.h.
//
// The TSV format is the one produced by GroupToTsv: a header row starting
// with "_id" listing the attribute names (optional trailing "_error"
// ground-truth column), then one row per entity; multi-valued cells join
// their values with '|'. Rule syntax is the ToString/Parse syntax, e.g.
//   "overlap(Authors) >= 2"
//   "overlap(Authors) <= 1 ^ ontology(Venue) <= 0.25"
// With --venue-ontology, ontology predicates resolve against the built-in
// Google-Scholar-Metrics-style venue tree (index 0 = exact venue names,
// index 1 = title keywords).
//
// Run with no arguments for a self-contained demo on a generated page.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/deadline.h"
#include "src/common/random.h"
#include "src/common/exit_code.h"
#include "src/common/string_util.h"
#include "src/common/threads.h"
#include "src/core/corpus.h"
#include "src/core/metrics.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/exec/engine.h"
#include "src/server/http.h"
#include "src/server/net_util.h"
#include "src/server/wire.h"
#include "src/store/snapshot.h"

namespace {

/// Exit code for a usage / bad-flag error (the classic `2`).
int UsageError(const char* fmt, const char* detail = nullptr) {
  std::fprintf(stderr, fmt, detail == nullptr ? "" : detail);
  std::fprintf(stderr, "\n");
  return dime::ExitCodeForStatusCode(dime::StatusCode::kInvalidArgument);
}

/// The value of numeric flag `flag`, which must be an integer in
/// [min, max]; anything else exits INVALID_ARGUMENT.
uint64_t FlagValue(const std::string& flag, const char* value, uint64_t min,
                   uint64_t max) {
  dime::StatusOr<uint64_t> parsed = dime::ParseUintFlag(flag, value, min, max);
  if (!parsed.ok()) {
    std::exit(UsageError("%s", parsed.status().message().c_str()));
  }
  return *parsed;
}

/// Runs `attempt` (one send over either protocol), retrying an
/// unreachable server (UNAVAILABLE: connection refused, or a connect cut
/// short by a signal) with jittered exponential backoff — 3 attempts,
/// ~100ms then ~200ms between them. Only connect failures retry: once a
/// connection existed, the request may have been acted on, and blindly
/// resending a non-idempotent verb (shutdown, reload) would be wrong.
dime::StatusOr<std::string> SendWithRetry(
    const std::function<dime::StatusOr<std::string>()>& attempt,
    int timeout_ms, bool retry) {
  using namespace dime;
  constexpr int kAttempts = 3;
  // Seeded per process: backoff jitter must differ between the N clients
  // a script launches at once, not across reruns of one client.
  Random jitter(static_cast<uint64_t>(::getpid()) * 0x9e3779b97f4a7c15ULL +
                static_cast<uint64_t>(timeout_ms));
  StatusOr<std::string> response = UnavailableError("no attempt made");
  for (int attempt_no = 0; attempt_no < (retry ? kAttempts : 1);
       ++attempt_no) {
    if (attempt_no > 0) {
      int64_t base_ms = 100LL << (attempt_no - 1);
      int64_t sleep_ms = base_ms / 2 + jitter.UniformInt(0, base_ms);
      std::fprintf(stderr,
                   "dime_cli: server unreachable (attempt %d/%d); retrying "
                   "in %lldms\n",
                   attempt_no, kAttempts, static_cast<long long>(sleep_ms));
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    response = attempt();
    if (response.ok() ||
        response.status().code() != StatusCode::kUnavailable) {
      return response;
    }
  }
  return response;
}

/// --client: send exactly one request to a running dime_server, print the
/// raw response line, and exit with the Status-coded exit code of the
/// response (UNAVAILABLE when the server cannot be reached at all).
int RunClient(int argc, char** argv) {
  using namespace dime;
  std::string host = "127.0.0.1";
  int port = 0;
  int timeout_ms = 30000;
  bool retry = true;
  bool http = false;
  std::string request_type = "check";
  std::string group_path;
  WireRequest request;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", arg.c_str());
        std::exit(ExitCodeForStatusCode(StatusCode::kInvalidArgument));
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = static_cast<int>(FlagValue(arg, next(), 0, kMaxPort));
    } else if (arg == "--timeout-ms") {
      timeout_ms = static_cast<int>(FlagValue(arg, next(), 0, kMaxFlagMillis));
    } else if (arg == "--request") {
      request_type = next();
    } else if (arg == "--group-name") {
      request.group_name = next();
    } else if (arg == "--deadline-ms") {
      request.deadline_ms =
          static_cast<int64_t>(FlagValue(arg, next(), 0, kMaxFlagMillis));
    } else if (arg == "--engine") {
      request.engine = next();
    } else if (arg == "--no-cache") {
      request.no_cache = true;
    } else if (arg == "--id") {
      request.id = next();
    } else if (arg == "--no-retry") {
      retry = false;
    } else if (arg == "--http") {
      http = true;
    } else if (arg == "--fingerprint") {
      request.fingerprint = next();
    } else if (!arg.empty() && arg[0] != '-') {
      group_path = arg;
    } else {
      return UsageError("unknown --client flag: %s", arg.c_str());
    }
  }
  if (port <= 0) return UsageError("--client needs --port <n>");

  if (request_type == "check") {
    request.type = WireRequest::Type::kCheck;
    if (!group_path.empty()) {
      // Ship the group inline: the server fingerprints content, so the
      // same file sent twice is a cache hit.
      Group group;
      Status loaded = LoadGroup(group_path, group_path, &group);
      if (!loaded.ok()) {
        return ExitWithStatus(loaded, ("loading " + group_path).c_str());
      }
      request.group_tsv = GroupToTsv(group);
    } else if (request.group_name.empty()) {
      return UsageError(
          "--client check needs a group.tsv argument or --group-name");
    }
  } else if (request_type == "stats") {
    request.type = WireRequest::Type::kStats;
  } else if (request_type == "ping") {
    request.type = WireRequest::Type::kPing;
  } else if (request_type == "shutdown") {
    request.type = WireRequest::Type::kShutdown;
  } else if (request_type == "reload") {
    request.type = WireRequest::Type::kReload;
  } else {
    return UsageError(
        "--request must be check, stats, ping, shutdown, or reload");
  }

  std::function<StatusOr<std::string>()> attempt;
  if (http) {
    // The route carries the verb; the body is the SAME serialized object
    // as the line protocol (the server ignores its redundant "type").
    std::string method =
        (request.type == WireRequest::Type::kStats ||
         request.type == WireRequest::Type::kPing)
            ? "GET"
            : "POST";
    std::string target = "/v1/" + request_type;
    std::string body = SerializeRequest(request);
    attempt = [&host, port, method, target, body, timeout_ms] {
      return SendHttpRequest(host, port, method, target, body, timeout_ms);
    };
  } else {
    std::string line = SerializeRequest(request);
    attempt = [&host, port, line, timeout_ms] {
      return SendRequestLine(host, port, line, timeout_ms);
    };
  }
  StatusOr<std::string> response = SendWithRetry(attempt, timeout_ms, retry);
  if (!response.ok()) {
    return ExitWithStatus(response.status(),
                          ("dime_server at " + host + ":" +
                           std::to_string(port))
                              .c_str());
  }
  std::printf("%s\n", response->c_str());
  Status decoded = StatusFromResponseLine(*response);
  if (!decoded.ok()) {
    std::fprintf(stderr, "server answered: %s\n",
                 decoded.ToString().c_str());
  }
  return ExitCodeForStatus(decoded);
}

int Demo() {
  using namespace dime;
  std::printf("(no arguments: running the built-in demo)\n\n");
  ScholarSetup setup = MakeScholarSetup();
  ScholarGenOptions gen;
  gen.num_correct = 60;
  gen.seed = 99;
  Group page = GenerateScholarGroup("Demo Owner", gen);
  std::string path = "/tmp/dime_demo_group.tsv";
  Status saved = SaveGroup(page, path);
  if (!saved.ok()) {
    return ExitWithStatus(saved, ("writing " + path).c_str());
  }
  std::printf("Wrote a demo page to %s; now try:\n\n", path.c_str());
  std::printf("  dime_cli %s \\\n"
              "    --venue-ontology \\\n"
              "    --positive \"overlap(Authors) >= 2\" \\\n"
              "    --positive \"overlap(Authors) >= 1 ^ ontology(Venue) >= "
              "0.75\" \\\n"
              "    --negative \"overlap(Authors) <= 0\" \\\n"
              "    --negative \"overlap(Authors) <= 1 ^ ontology(Venue) <= "
              "0.25\"\n",
              path.c_str());
  return 0;
}

/// Shared tail of the run modes: scrollbar, optional PRF, optional stats.
void PrintRunResult(const dime::Group& group, const dime::DimeResult& result,
                    bool show_stats) {
  using namespace dime;
  std::printf("%zu partitions; pivot has %zu entities.\n",
              result.partitions.size(), result.PivotEntities().size());
  for (size_t k = 0; k < result.flagged_by_prefix.size(); ++k) {
    std::printf("scrollbar %zu: %zu suggested mis-categorized entities",
                k + 1, result.flagged_by_prefix[k].size());
    if (group.has_truth()) {
      Prf prf = EvaluateFlagged(group, result.flagged_by_prefix[k]);
      std::printf("  (P=%.2f R=%.2f)", prf.precision, prf.recall);
    }
    std::printf("\n");
    for (int e : result.flagged_by_prefix[k]) {
      std::printf("  %s\n", group.entities[e].id.c_str());
    }
  }
  if (show_stats) {
    const DimeResult::Stats& s = result.stats;
    std::printf("stats:\n");
    std::printf("  positive_pair_checks           %zu\n",
                s.positive_pair_checks);
    std::printf("  negative_pair_checks           %zu\n",
                s.negative_pair_checks);
    std::printf("  candidate_pairs                %zu\n", s.candidate_pairs);
    std::printf("  partitions_pruned_by_filter    %zu\n",
                s.partitions_pruned_by_filter);
    std::printf("  pairs_skipped_by_transitivity  %zu\n",
                s.pairs_skipped_by_transitivity);
    std::printf("  kernel_early_exits             %zu\n",
                s.kernel_early_exits);
  }
}

/// --snapshot: warm-start from a dime_snapshot image and check one group.
int RunSnapshot(int argc, char** argv) {
  using namespace dime;
  std::string path;
  std::string group_name;
  EngineKind engine = EngineKind::kPlus;
  unsigned threads = 0;
  long deadline_ms = -1;
  bool show_stats = false;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", arg.c_str());
        std::exit(ExitCodeForStatusCode(StatusCode::kInvalidArgument));
      }
      return argv[++i];
    };
    if (arg == "--group-name") {
      group_name = next();
    } else if (arg == "--engine") {
      if (!EngineKindFromName(next(), &engine)) {
        return UsageError("--engine must be one of %s",
                          EngineKindNames(", ").c_str());
      }
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(FlagValue(arg, next(), 0, kMaxThreads));
    } else if (arg == "--deadline-ms") {
      deadline_ms =
          static_cast<long>(FlagValue(arg, next(), 1, kMaxFlagMillis));
    } else if (arg == "--stats") {
      show_stats = true;
    } else if (path.empty()) {
      path = arg;
    } else {
      return UsageError("unknown --snapshot flag: %s", arg.c_str());
    }
  }
  if (path.empty()) return UsageError("--snapshot needs a snapshot file");

  StatusOr<LoadedSnapshot> loaded = LoadSnapshot(path);
  if (!loaded.ok()) {
    return ExitWithStatus(loaded.status(), ("loading " + path).c_str());
  }
  size_t pick = 0;
  if (!group_name.empty()) {
    bool found = false;
    for (size_t i = 0; i < loaded->groups.size(); ++i) {
      if (loaded->groups[i].name == group_name) {
        pick = i;
        found = true;
        break;
      }
    }
    if (!found) {
      return ExitWithStatus(
          NotFoundError("snapshot has no group named '" + group_name + "'"),
          "snapshot");
    }
  }
  const Group& group = loaded->groups[pick];
  const PreparedGroup& pg = *loaded->prepared[pick];
  std::printf("Loaded %zu entities from snapshot group '%s' (%s, no "
              "preparation).\n",
              group.size(), group.name.c_str(),
              loaded->mapped ? "mmap" : "read fallback");

  RunControl control;
  if (deadline_ms > 0) control.deadline = Deadline::AfterMillis(deadline_ms);
  exec::ShardedOptions engine_options;
  engine_options.num_threads = threads;
  DimeResult result = exec::RunEngine(engine, pg, loaded->positive,
                                      loaded->negative, engine_options,
                                      control);
  if (!result.ok()) {
    std::fprintf(stderr, "note: run truncated (%s); results are partial\n",
                 result.status.ToString().c_str());
  }
  PrintRunResult(group, result, show_stats);
  return ExitCodeForStatus(result.status);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dime;
  if (argc < 2) return Demo();
  if (std::strcmp(argv[1], "--client") == 0) return RunClient(argc, argv);
  if (std::strcmp(argv[1], "--snapshot") == 0) return RunSnapshot(argc, argv);

  CorpusSources sources;
  sources.group_paths.push_back(argv[1]);
  EngineKind engine = EngineKind::kPlus;
  unsigned threads = 0;
  long deadline_ms = -1;
  bool show_stats = false;
  for (int i = 2; i < argc; ++i) {
    StatusOr<bool> corpus_flag = ParseCorpusFlag(argc, argv, &i, &sources);
    if (!corpus_flag.ok()) {
      return UsageError("%s", corpus_flag.status().message().c_str());
    }
    if (*corpus_flag) continue;
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", arg.c_str());
        std::exit(ExitCodeForStatusCode(StatusCode::kInvalidArgument));
      }
      return argv[++i];
    };
    if (arg == "--positive") {
      sources.positive_rules.push_back(next());
    } else if (arg == "--negative") {
      sources.negative_rules.push_back(next());
    } else if (arg == "--engine") {
      if (!EngineKindFromName(next(), &engine)) {
        return UsageError("--engine must be one of %s",
                          EngineKindNames(", ").c_str());
      }
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(FlagValue(arg, next(), 0, kMaxThreads));
    } else if (arg == "--deadline-ms") {
      deadline_ms =
          static_cast<long>(FlagValue(arg, next(), 1, kMaxFlagMillis));
    } else if (arg == "--stats") {
      show_stats = true;
    } else {
      return UsageError("unknown flag: %s", arg.c_str());
    }
  }

  // The code tells the user what actually went wrong: a missing file, a
  // failed read, a malformed header or rule, a row/schema disagreement, or
  // rules the context cannot evaluate — and the exit code (exit_code.h)
  // forwards that distinction to the shell.
  StatusOr<Corpus> corpus = LoadCorpus(sources);
  if (!corpus.ok()) return ExitWithStatus(corpus.status(), "dime_cli");
  const Group& group = corpus->groups[0];
  std::printf("Loaded %zu entities with %zu attributes%s.\n", group.size(),
              group.schema.size(),
              group.has_truth() ? " (ground truth present)" : "");
  if (corpus->positive.empty()) {
    return UsageError("need at least one --positive rule");
  }

  RunControl control;
  if (deadline_ms > 0) control.deadline = Deadline::AfterMillis(deadline_ms);

  PreparedGroup pg = PrepareGroup(group, corpus->positive, corpus->negative,
                                  corpus->context);
  exec::ShardedOptions engine_options;
  engine_options.num_threads = threads;
  DimeResult result = exec::RunEngine(engine, pg, corpus->positive,
                                      corpus->negative, engine_options,
                                      control);
  if (!result.ok()) {
    std::fprintf(stderr, "note: run truncated (%s); results are partial\n",
                 result.status.ToString().c_str());
  }

  PrintRunResult(group, result, show_stats);
  // A truncated run printed its partial scrollbar above, but the shell
  // still learns it was partial: DEADLINE_EXCEEDED exits 7, CANCELLED 8.
  return ExitCodeForStatus(result.status);
}
