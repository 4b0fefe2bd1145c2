// dime_snapshot: build, inspect, and verify versioned binary corpus
// snapshots (src/store/snapshot.h). A snapshot front-loads group
// preparation — tokenization, rank columns, masses, ontology node maps —
// so `dime_server --snapshot` and `dime_cli --snapshot` warm-start by mmap
// instead of re-ingesting TSV. Signatures and inverted indexes are built
// on demand by the engines, as for any other group.
//
// Usage:
//   dime_snapshot build --output corpus.snap
//       --demo [--demo-pages N]                   # generated Scholar corpus
//     | --preset scholar-2999 | --preset amazon-10000
//     | --group page.tsv [--group ...] --rules rules.txt
//       [--venue-ontology]
//       [--ontology tree.txt [--ontology-mode exact|keyword]]...
//   dime_snapshot inspect corpus.snap
//   dime_snapshot verify corpus.snap [--deep]
//
// build reads its sources as dime_server does: --demo and the presets
// from src/datagen/presets.h, --group, --rules and the ontology flags
// through the loader of src/core/corpus.h.
//
// Exit codes follow src/common/exit_code.h (0 OK; a missing group, rule or
// tree file => 3, a malformed one => 5, a group of another schema, invalid
// rules or a bad flag => 2, DATA_LOSS => 12, ...).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "src/common/exit_code.h"
#include "src/common/string_util.h"
#include "src/core/corpus.h"
#include "src/datagen/presets.h"
#include "src/store/snapshot.h"
#include "src/store/snapshot_format.h"

namespace {

using namespace dime;

int Usage(const char* msg) {
  std::fprintf(stderr, "dime_snapshot: %s (run with --help for usage)\n",
               msg);
  return ExitCodeForStatusCode(StatusCode::kInvalidArgument);
}

void PrintHelp() {
  std::printf(
      "dime_snapshot build --output <file>\n"
      "    --demo [--demo-pages N] | --preset scholar-2999|amazon-10000 |\n"
      "    --group <tsv>... --rules <file> [--venue-ontology]\n"
      "    [--ontology <tree> [--ontology-mode exact|keyword]]...\n"
      "dime_snapshot inspect <file>\n"
      "dime_snapshot verify <file> [--deep]\n"
      "\n"
      "A snapshot (format version %u) holds the rules, the ontologies and,\n"
      "per group, its entities and prepared columns. Loaders read only\n"
      "their own format version; rebuild a snapshot of any other version.\n"
      "verify checks every CRC and parses the file; --deep also\n"
      "re-prepares each group and byte-compares its prepared columns.\n",
      kSnapshotFormatVersion);
}

int RunBuild(int argc, char** argv) {
  std::string output;
  bool demo = false;
  size_t demo_pages = 4;
  std::string preset;
  CorpusSources sources;

  for (int i = 0; i < argc; ++i) {
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
    if (arg == "--output") {
      output = next();
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--demo-pages") {
      StatusOr<uint64_t> pages = ParseUintFlag(
          arg, next(), 0, std::numeric_limits<size_t>::max());
      if (!pages.ok()) return Usage(pages.status().message().c_str());
      demo_pages = *pages;
    } else if (arg == "--preset") {
      preset = next();
    } else if (arg == "--group") {
      sources.group_paths.push_back(next());
    } else if (arg == "--help") {
      PrintHelp();
      return 0;
    } else {
      return Usage(("unknown flag: " + arg).c_str());
    }
  }
  if (output.empty()) return Usage("build needs --output");
  const int source_count = (demo ? 1 : 0) + (preset.empty() ? 0 : 1) +
                           (sources.group_paths.empty() ? 0 : 1);
  if (source_count != 1) {
    return Usage("build needs exactly one of --demo, --preset, --group");
  }
  if (!sources.group_paths.empty() && sources.rules_path.empty()) {
    return Usage("need --rules with --group");
  }

  StatusOr<Corpus> corpus = demo              ? MakeDemoCorpus(demo_pages)
                            : !preset.empty() ? MakePresetCorpus(preset)
                                              : LoadCorpus(sources);
  if (!corpus.ok()) return ExitWithStatus(corpus.status(), "build");

  SnapshotWriteRequest request;
  request.groups = &corpus->groups;
  request.positive = &corpus->positive;
  request.negative = &corpus->negative;
  request.context = &corpus->context;
  Status written = WriteSnapshot(request, output);
  if (!written.ok()) return ExitWithStatus(written, "build");

  StatusOr<SnapshotInfo> info = InspectSnapshot(output);
  if (!info.ok()) return ExitWithStatus(info.status(), "build");
  std::printf(
      "dime_snapshot: wrote %s (v%u, %llu bytes, %zu sections, %zu "
      "group(s), fingerprint %016llx%016llx)\n",
      output.c_str(), info->version,
      static_cast<unsigned long long>(info->file_size),
      info->sections.size(), corpus->groups.size(),
      static_cast<unsigned long long>(info->fingerprint_hi),
      static_cast<unsigned long long>(info->fingerprint_lo));
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
  if (path.empty()) return Usage("inspect needs a snapshot file");
  StatusOr<SnapshotInfo> info = InspectSnapshot(path);
  if (!info.ok()) return ExitWithStatus(info.status(), "inspect");
  std::printf("%s: DIME snapshot v%u, %llu bytes\n", path.c_str(),
              info->version,
              static_cast<unsigned long long>(info->file_size));
  std::printf("fingerprint: %016llx%016llx\n",
              static_cast<unsigned long long>(info->fingerprint_hi),
              static_cast<unsigned long long>(info->fingerprint_lo));
  std::printf("%-14s %6s %12s %12s %10s\n", "section", "index", "offset",
              "length", "crc32");
  for (const SnapshotInfo::Section& sec : info->sections) {
    std::printf("%-14s %6u %12llu %12llu   %08x\n",
                SnapshotSectionIdName(sec.id), sec.index,
                static_cast<unsigned long long>(sec.offset),
                static_cast<unsigned long long>(sec.length), sec.crc32);
  }
  return 0;
}

int RunVerify(int argc, char** argv) {
  std::string path;
  bool deep = false;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--deep") {
      deep = true;
    } else if (arg == "--help") {
      PrintHelp();
      return 0;
    } else if (path.empty()) {
      path = arg;
    } else {
      return Usage("verify takes exactly one file");
    }
  }
  if (path.empty()) return Usage("verify needs a snapshot file");
  Status verified = VerifySnapshot(path, deep);
  if (!verified.ok()) return ExitWithStatus(verified, "verify");
  std::printf("%s: OK%s\n", path.c_str(), deep ? " (deep)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("need a sub-command: build, inspect, verify");
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") {
    PrintHelp();
    return 0;
  }
  if (cmd == "build") return RunBuild(argc - 2, argv + 2);
  if (cmd == "inspect") return RunInspect(argc - 2, argv + 2);
  if (cmd == "verify") return RunVerify(argc - 2, argv + 2);
  return Usage(("unknown sub-command: " + cmd).c_str());
}
