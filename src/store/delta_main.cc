// dime_delta: append to, inspect, and replay the live-corpus delta log
// (src/store/delta_log.h). The log is the between-snapshots mutation
// stream: `dime_server --delta-log` merges it into a new serving epoch,
// and this tool is how producers write records and operators audit them.
//
// Usage:
//   dime_delta append <log> --group G --op add|remove|edit --id E
//       [--value "v1|v2"]...        # one --value per schema attribute,
//                                   # decoded like a group TSV cell
//                                   # (ParseAttributeCell: '|' splits,
//                                   # pieces trimmed, empties dropped)
//   dime_delta inspect <log>        # header, per-record listing, tail state
//   dime_delta replay <log> --base group.tsv
//       [--rules rules.txt [--venue-ontology]]  # run DIME+ on the
//                                               # merged group
//       [--output merged.tsv]       # write the merged group
//
// replay reads the base group and the rules through the loader of
// src/core/corpus.h, as dime_server does, but takes only its --rules and
// --venue-ontology flags: it has no --ontology, so it cannot evaluate
// rules over a tree file (the exported Amazon rules, say). The rules are
// parsed against the base group's schema and must validate; a missing
// base or rule file exits 3, a malformed one 5, invalid rules 2.
//
// Exit codes follow src/common/exit_code.h: a torn tail (crash
// mid-append) inspects as OK with a note — the acknowledged prefix is
// intact — but mid-stream corruption exits with the DATA_LOSS mapping.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/exit_code.h"
#include "src/core/corpus.h"
#include "src/core/dime_plus.h"
#include "src/entity/entity.h"
#include "src/store/delta_log.h"

namespace {

using namespace dime;

int Usage(const char* msg) {
  std::fprintf(stderr, "dime_delta: %s (run with --help for usage)\n", msg);
  return ExitCodeForStatusCode(StatusCode::kInvalidArgument);
}

void PrintHelp() {
  std::printf(
      "dime_delta append <log> --group G --op add|remove|edit --id E\n"
      "    [--value \"v1|v2\"]...    (one --value per schema attribute)\n"
      "dime_delta inspect <log>\n"
      "dime_delta replay <log> --base <group.tsv>\n"
      "    [--rules <file> [--venue-ontology]] [--output <merged.tsv>]\n");
}

int RunAppend(int argc, char** argv) {
  std::string path;
  DeltaRecord record;
  bool have_op = false;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", arg.c_str());
        std::exit(ExitCodeForStatusCode(StatusCode::kInvalidArgument));
      }
      return argv[++i];
    };
    if (arg == "--group") {
      record.group = next();
    } else if (arg == "--op") {
      if (!DeltaOpFromName(next(), &record.op)) {
        return Usage("--op must be add, remove, or edit");
      }
      have_op = true;
    } else if (arg == "--id") {
      record.entity_id = next();
    } else if (arg == "--value") {
      record.values.push_back(ParseAttributeCell(next()));
    } else if (arg == "--help") {
      PrintHelp();
      return 0;
    } else if (path.empty()) {
      path = arg;
    } else {
      return Usage(("unknown flag: " + arg).c_str());
    }
  }
  if (path.empty()) return Usage("append needs a log file");
  if (record.group.empty()) return Usage("append needs --group");
  if (!have_op) return Usage("append needs --op");
  if (record.entity_id.empty()) return Usage("append needs --id");
  if (record.op == DeltaRecord::Op::kRemove && !record.values.empty()) {
    return Usage("--value makes no sense with --op remove");
  }
  if (record.op != DeltaRecord::Op::kRemove && record.values.empty()) {
    return Usage("add/edit need at least one --value");
  }

  StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(path);
  if (!writer.ok()) return ExitWithStatus(writer.status(), "append");
  Status appended = writer->Append(record);
  if (!appended.ok()) return ExitWithStatus(appended, "append");
  std::printf("dime_delta: appended %s %s/%s to %s\n",
              DeltaOpName(record.op), record.group.c_str(),
              record.entity_id.c_str(), path.c_str());
  return 0;
}

int RunInspect(int argc, char** argv) {
  std::string path;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help") {
      PrintHelp();
      return 0;
    }
    if (!path.empty()) return Usage("inspect takes exactly one file");
    path = arg;
  }
  if (path.empty()) return Usage("inspect needs a log file");

  StatusOr<DeltaLogContents> contents = ReadDeltaLog(path);
  if (!contents.ok()) return ExitWithStatus(contents.status(), "inspect");
  std::printf("%s: DIME delta log v%u, %zu record(s), %llu valid byte(s)\n",
              path.c_str(), kDeltaLogFormatVersion, contents->records.size(),
              static_cast<unsigned long long>(contents->valid_bytes));
  std::printf("%6s %-8s %-24s %-24s %s\n", "#", "op", "group", "entity",
              "values");
  for (size_t i = 0; i < contents->records.size(); ++i) {
    const DeltaRecord& r = contents->records[i];
    std::printf("%6zu %-8s %-24s %-24s %zu\n", i, DeltaOpName(r.op),
                r.group.c_str(), r.entity_id.c_str(), r.values.size());
  }
  if (contents->torn_tail) {
    std::printf("note: torn final record dropped (crash mid-append); the "
                "listed prefix is intact\n");
  }
  return 0;
}

int RunReplay(int argc, char** argv) {
  std::string path;
  std::string base_path;
  CorpusSources sources;
  std::string output_path;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", arg.c_str());
        std::exit(ExitCodeForStatusCode(StatusCode::kInvalidArgument));
      }
      return argv[++i];
    };
    if (arg == "--rules" || arg == "--venue-ontology") {
      StatusOr<bool> parsed = ParseCorpusFlag(argc, argv, &i, &sources);
      if (!parsed.ok()) return Usage(parsed.status().message().c_str());
    } else if (arg == "--base") {
      base_path = next();
    } else if (arg == "--output") {
      output_path = next();
    } else if (arg == "--help") {
      PrintHelp();
      return 0;
    } else if (path.empty()) {
      path = arg;
    } else {
      return Usage(("unknown flag: " + arg).c_str());
    }
  }
  if (path.empty()) return Usage("replay needs a log file");
  if (base_path.empty()) return Usage("replay needs --base");
  sources.group_paths.push_back(base_path);

  StatusOr<Corpus> corpus = LoadCorpus(sources);
  if (!corpus.ok()) return ExitWithStatus(corpus.status(), "replay");
  const Group& base = corpus->groups[0];

  StatusOr<DeltaLogContents> contents = ReadDeltaLog(path);
  if (!contents.ok()) return ExitWithStatus(contents.status(), "replay");
  if (contents->torn_tail) {
    std::fprintf(stderr,
                 "dime_delta: WARNING: torn final record dropped; replaying "
                 "the intact prefix\n");
  }

  Group merged = base;
  size_t applied = 0;
  Status status = ApplyDeltaRecords(contents->records, &merged, &applied);
  if (!status.ok()) return ExitWithStatus(status, "replay");
  std::printf("dime_delta: %zu of %zu record(s) applied to '%s' (%zu -> %zu "
              "entities)\n",
              applied, contents->records.size(), base.name.c_str(),
              base.size(), merged.size());

  if (!sources.rules_path.empty()) {
    PreparedGroup pg = PrepareGroup(merged, corpus->positive,
                                    corpus->negative, corpus->context);
    DimeResult result = RunDimePlus(pg, corpus->positive, corpus->negative);
    std::printf("dime_delta: replay: %zu partition(s), %zu entity(ies) "
                "flagged\n",
                result.partitions.size(), result.flagged().size());
    for (int e : result.flagged()) {
      std::printf("  flagged: %s\n", merged.entities[e].id.c_str());
    }
  }

  if (!output_path.empty()) {
    Status saved = SaveGroup(merged, output_path);
    if (!saved.ok()) return ExitWithStatus(saved, "replay");
    std::printf("dime_delta: wrote merged group to %s\n",
                output_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("need a sub-command: append, inspect, replay");
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") {
    PrintHelp();
    return 0;
  }
  if (cmd == "append") return RunAppend(argc - 2, argv + 2);
  if (cmd == "inspect") return RunInspect(argc - 2, argv + 2);
  if (cmd == "replay") return RunReplay(argc - 2, argv + 2);
  return Usage(("unknown sub-command: " + cmd).c_str());
}
