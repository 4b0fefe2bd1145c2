// Golden determinism test for dime_cli (DESIGN.md §7.9): the printed
// decisions — scrollbar, partitions, exit code — of --engine plus must be
// byte-identical across --threads 1/2/8, compared without --stats (on a
// pool, step-1 effort counters are schedule-dependent by design). A page
// of kPrepareChunkEntities entities or more runs the sharded DIME+ body on
// the --threads pool, and its scrollbar must equal serial RunDimePlus's.
// Neither dime_cli nor dime_server takes "sharded" as an engine name any
// more.
//
// The test exports a scholar-2999-scale page through the real TSV/rule
// codecs and spawns the real binary, so it covers the whole path a user
// sees: load → prepare → engine → print. `dime_delta replay --rules`
// runs the same page through its merge-then-DIME+ path and must flag
// exactly what Algorithm 1 flags on the merged group.
//
// The corpus-source tests drive the loader every front end shares
// (src/core/corpus.h) through the binaries: an exported Amazon category
// under --ontology themes.ontology --ontology-mode keyword flags what
// Algorithm 1 flags, straight from TSV and through a snapshot; a group of
// another schema, a misspelled --ontology-mode and a missing rules file
// are refused with the same exit code by every binary that reads them.
//
// --demo-pages above kMaxDemoPages is refused by dime_server and
// dime_snapshot build alike.
//
// The last tests spawn generate_datasets: it never takes a flag as its
// output directory, and a failed export exits with its Status code.
//
// DIME_CLI_BINARY, DIME_DELTA_BINARY, DIME_GENERATE_DATASETS_BINARY,
// DIME_SERVER_BINARY and DIME_SNAPSHOT_BINARY are injected by CMake.

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/exit_code.h"
#include "src/core/corpus.h"
#include "src/core/dime.h"
#include "src/core/dime_plus.h"
#include "src/core/preprocess.h"
#include "src/datagen/presets.h"
#include "src/repro/export.h"
#include "src/store/delta_log.h"

namespace dime {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

CliResult RunCommand(const std::string& cmd) {
  CliResult result;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

/// Exports one big scholar page once for the whole suite and hands out
/// the paths dime_cli needs.
class CliDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    char tmpl[] = "/tmp/dime_cli_det_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = new std::string(tmpl);
    ExportOptions options;
    options.scholar_pages = 1;
    options.scholar_pubs = 2999;
    options.amazon_categories = 1;
    options.amazon_products = 100;
    options.seed = 6000;
    ExportManifest manifest;
    const Status exported = ExportBenchmarkSuite(*dir_, options, &manifest);
    ASSERT_TRUE(exported.ok()) << exported.ToString();
    ASSERT_EQ(manifest.scholar_groups.size(), 1u);
    page_ = new std::string(manifest.scholar_groups[0]);
    rules_ = new std::string(manifest.scholar_rules);
    ASSERT_EQ(manifest.amazon_groups.size(), 1u);
    amazon_sources_ = new CorpusSources;
    amazon_sources_->group_paths = manifest.amazon_groups;
    amazon_sources_->rules_path = manifest.amazon_rules;
    amazon_sources_->ontologies.push_back(
        {manifest.theme_ontology, MapMode::kKeyword});

    // A page big enough that --engine plus runs the sharded body.
    options.scholar_pubs = kPrepareChunkEntities;
    ExportManifest big_manifest;
    const Status big_exported =
        ExportBenchmarkSuite(*dir_ + "/big", options, &big_manifest);
    ASSERT_TRUE(big_exported.ok()) << big_exported.ToString();
    ASSERT_EQ(big_manifest.scholar_groups.size(), 1u);
    big_page_ = new std::string(big_manifest.scholar_groups[0]);
  }

  static void TearDownTestSuite() {
    std::string cmd = "rm -rf '" + *dir_ + "'";
    // lint: unchecked-status-ok(best-effort temp cleanup)
    (void)system(cmd.c_str());
    delete dir_;
    delete page_;
    delete big_page_;
    delete rules_;
    delete amazon_sources_;
  }

  /// The Scholar page under the exported rules and the venue tree.
  static CorpusSources PageSources(const std::string& page) {
    CorpusSources sources;
    sources.group_paths = {page};
    sources.rules_path = *rules_;
    sources.venue_ontology = true;
    return sources;
  }

  /// `result`'s flags by scrollbar prefix, as ids of `group`.
  static std::vector<std::vector<std::string>> FlaggedIds(
      const Group& group, const DimeResult& result) {
    std::vector<std::vector<std::string>> ids;
    for (const std::vector<int>& flagged : result.flagged_by_prefix) {
      ids.emplace_back();
      for (int e : flagged) ids.back().push_back(group.entities[e].id);
    }
    return ids;
  }

  static CliResult RunCli(const std::string& engine, unsigned threads) {
    return RunCliOn(*page_, engine, threads);
  }

  static CliResult RunCliOn(const std::string& page, const std::string& engine,
                            unsigned threads) {
    std::string cmd = std::string(DIME_CLI_BINARY) + " '" + page +
                      "' --rules '" + *rules_ + "' --venue-ontology" +
                      " --engine " + engine + " --threads " +
                      std::to_string(threads);
    return RunCommand(cmd);
  }

  /// Writes a delta log against the exported page, its records named by
  /// the page's path as `dime_delta replay --base` names the group: three
  /// adds, one remove and one edit. Returns the log's path.
  static std::string WriteReplayLog(const Group& base) {
    std::vector<DeltaRecord> records;
    for (int i = 0; i < 3; ++i) {
      DeltaRecord add;
      add.op = DeltaRecord::Op::kAdd;
      add.group = base.name;
      add.entity_id = "delta_add_" + std::to_string(i);
      add.values = base.entities[10 + i].values;
      add.values[1] = {"Delta Arrival " + std::to_string(i)};  // Authors
      records.push_back(std::move(add));
    }
    DeltaRecord remove;
    remove.op = DeltaRecord::Op::kRemove;
    remove.group = base.name;
    remove.entity_id = base.entities[1].id;
    records.push_back(std::move(remove));
    DeltaRecord edit;
    edit.op = DeltaRecord::Op::kEdit;
    edit.group = base.name;
    edit.entity_id = base.entities[2].id;
    edit.values = base.entities[3].values;
    records.push_back(std::move(edit));

    std::string path = *dir_ + "/replay.dlog";
    std::remove(path.c_str());
    StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(path);
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    for (const DeltaRecord& record : records) {
      EXPECT_TRUE(writer->Append(record).ok());
    }
    return path;
  }

  /// The ids `dime_delta replay` printed on its "  flagged: " lines.
  static std::vector<std::string> PrintedFlags(const std::string& output) {
    std::vector<std::string> ids;
    std::istringstream lines(output);
    std::string line;
    const std::string prefix = "  flagged: ";
    while (std::getline(lines, line)) {
      if (line.rfind(prefix, 0) == 0) ids.push_back(line.substr(prefix.size()));
    }
    return ids;
  }

  /// The ids dime_cli printed under each "scrollbar k:" header, by k.
  static std::vector<std::vector<std::string>> PrintedScrollbar(
      const std::string& output) {
    std::vector<std::vector<std::string>> scrollbar;
    std::istringstream lines(output);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("scrollbar ", 0) == 0) {
        scrollbar.emplace_back();
      } else if (!scrollbar.empty() && line.rfind("  ", 0) == 0) {
        scrollbar.back().push_back(line.substr(2));
      }
    }
    return scrollbar;
  }

  /// Replays a fixed log over the exported page under `rules_path` and
  /// checks the printed flags against Algorithm 1 on the merged group.
  static void ExpectReplayFlagsLikeRunDime(const std::string& rules_path) {
    Group base;
    ASSERT_TRUE(LoadGroup(*page_, *page_, &base).ok());
    const std::string log = WriteReplayLog(base);
    CliResult replay = RunCommand(std::string(DIME_DELTA_BINARY) +
                                  " replay '" + log + "' --base '" + *page_ +
                                  "' --rules '" + rules_path +
                                  "' --venue-ontology");
    ASSERT_EQ(replay.exit_code, 0) << replay.output;
    EXPECT_NE(replay.output.find("5 of 5 record(s) applied"),
              std::string::npos)
        << replay.output;

    StatusOr<DeltaLogContents> contents = ReadDeltaLog(log);
    ASSERT_TRUE(contents.ok()) << contents.status().ToString();
    Group merged = base;
    ASSERT_TRUE(ApplyDeltaRecords(contents->records, &merged).ok());
    CorpusSources sources = PageSources(*page_);
    sources.rules_path = rules_path;
    StatusOr<Corpus> corpus = LoadCorpus(sources);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    DimeResult expected = RunDime(merged, corpus->positive, corpus->negative,
                                  corpus->context);
    ASSERT_TRUE(expected.ok());
    std::vector<std::string> expected_ids;
    for (int e : expected.flagged()) {
      expected_ids.push_back(merged.entities[e].id);
    }
    EXPECT_FALSE(expected_ids.empty());
    EXPECT_EQ(PrintedFlags(replay.output), expected_ids) << replay.output;
  }

  static std::string* dir_;
  static std::string* page_;
  static std::string* big_page_;
  static std::string* rules_;
  /// The exported Amazon category under its rules and theme tree.
  static CorpusSources* amazon_sources_;
};

std::string* CliDeterminismTest::dir_ = nullptr;
std::string* CliDeterminismTest::page_ = nullptr;
std::string* CliDeterminismTest::big_page_ = nullptr;
std::string* CliDeterminismTest::rules_ = nullptr;
CorpusSources* CliDeterminismTest::amazon_sources_ = nullptr;

TEST_F(CliDeterminismTest, ShardedEngineDecisionsAreByteIdentical) {
  // The small page runs RunDimePlus whatever --threads says; the big one
  // runs the sharded body on a pool of --threads executors.
  for (const std::string* page : {page_, big_page_}) {
    CliResult one = RunCliOn(*page, "plus", 1);
    ASSERT_EQ(one.exit_code, 0) << one.output;
    ASSERT_FALSE(one.output.empty());
    for (unsigned threads : {2u, 8u}) {
      CliResult r = RunCliOn(*page, "plus", threads);
      ASSERT_EQ(r.exit_code, 0) << r.output;
      EXPECT_EQ(r.output, one.output)
          << *page << " --threads " << threads << " output diverged";
    }
  }
}

TEST_F(CliDeterminismTest, ShardedEngineMatchesSerialPlusOutput) {
  StatusOr<Corpus> corpus = LoadCorpus(PageSources(*big_page_));
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  const Group& group = corpus->groups[0];
  ASSERT_GE(group.size(), kPrepareChunkEntities);
  DimeResult serial = RunDimePlus(
      PrepareGroup(group, corpus->positive, corpus->negative, corpus->context),
      corpus->positive, corpus->negative);
  ASSERT_TRUE(serial.ok());
  std::vector<std::vector<std::string>> expected = FlaggedIds(group, serial);
  ASSERT_FALSE(expected.empty());
  EXPECT_FALSE(expected.back().empty());

  CliResult sharded = RunCliOn(*big_page_, "plus", 8);
  ASSERT_EQ(sharded.exit_code, 0) << sharded.output;
  EXPECT_EQ(PrintedScrollbar(sharded.output), expected);
  EXPECT_NE(sharded.output.find(std::to_string(serial.partitions.size()) +
                                " partitions;"),
            std::string::npos)
      << sharded.output;
}

TEST_F(CliDeterminismTest, ShardedIsNoLongerAnEngineName) {
  // The pooled DIME+ body runs under "plus"; "sharded" is a usage error
  // (INVALID_ARGUMENT) for both binaries that take --engine.
  const int invalid_argument =
      ExitCodeForStatusCode(StatusCode::kInvalidArgument);
  CliResult cli = RunCli("sharded", 1);
  EXPECT_EQ(cli.exit_code, invalid_argument) << cli.output;
  EXPECT_NE(cli.output.find("--engine must be one of naive, plus"),
            std::string::npos)
      << cli.output;
  CliResult server = RunCommand(std::string(DIME_SERVER_BINARY) +
                                " --engine sharded --help");
  EXPECT_EQ(server.exit_code, invalid_argument) << server.output;
  EXPECT_NE(server.output.find("--engine must be one of naive, plus"),
            std::string::npos)
      << server.output;
}

TEST_F(CliDeterminismTest, DeltaReplayFlagsLikeAlgorithm1) {
  ExpectReplayFlagsLikeRunDime(*rules_);
}

TEST_F(CliDeterminismTest, DeltaReplayAcceptsIdfWeightedRules) {
  // An IDF-weighted predicate is valid rule-file input: replay must run
  // it, not abort on it.
  std::ifstream in(*rules_);
  std::stringstream text;
  text << in.rdbuf();
  std::string rules = text.str();
  const std::string plain = "positive: overlap(Authors) >= 2";
  size_t at = rules.find(plain);
  ASSERT_NE(at, std::string::npos) << rules;
  rules.replace(at, plain.size(), "positive: wjaccard(Authors) >= 0.2");
  const std::string weighted = *dir_ + "/weighted_rules.txt";
  std::ofstream(weighted) << rules;
  ExpectReplayFlagsLikeRunDime(weighted);
}

TEST_F(CliDeterminismTest, DeltaReplayRefusesRulesItsContextCannotEvaluate) {
  // The exported rules use ontology predicates; without --venue-ontology
  // there is no ontology to evaluate them against. That is bad input
  // (INVALID_ARGUMENT), not a crash.
  Group base;
  ASSERT_TRUE(LoadGroup(*page_, *page_, &base).ok());
  const std::string log = WriteReplayLog(base);
  CliResult replay = RunCommand(std::string(DIME_DELTA_BINARY) + " replay '" +
                                log + "' --base '" + *page_ + "' --rules '" +
                                *rules_ + "'");
  EXPECT_EQ(replay.exit_code,
            ExitCodeForStatusCode(StatusCode::kInvalidArgument))
      << replay.output;
  EXPECT_NE(replay.output.find("ontology index 0 not provided"),
            std::string::npos)
      << replay.output;
}

// --ontology with --ontology-mode keyword reaches the engine: the exported
// Amazon category flags what Algorithm 1 flags under its rules and the
// theme tree, from TSV (dime_cli) and through a snapshot built from the
// same sources (dime_snapshot build, then dime_cli --snapshot).
TEST_F(CliDeterminismTest, OntologyFileInKeywordModeFlagsLikeAlgorithm1) {
  StatusOr<Corpus> corpus = LoadCorpus(*amazon_sources_);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  const Group& group = corpus->groups[0];
  DimeResult expected_run = RunDime(group, corpus->positive, corpus->negative,
                                    corpus->context);
  ASSERT_TRUE(expected_run.ok());
  std::vector<std::vector<std::string>> expected =
      FlaggedIds(group, expected_run);
  ASSERT_EQ(expected.size(), corpus->negative.size());
  EXPECT_FALSE(expected.back().empty());

  const std::string flags =
      " --rules '" + amazon_sources_->rules_path + "' --ontology '" +
      amazon_sources_->ontologies[0].path + "' --ontology-mode keyword";
  CliResult cli = RunCommand(std::string(DIME_CLI_BINARY) + " '" +
                             group.name + "'" + flags);
  ASSERT_EQ(cli.exit_code, 0) << cli.output;
  EXPECT_EQ(PrintedScrollbar(cli.output), expected) << cli.output;

  const std::string snap = *dir_ + "/amazon.snap";
  CliResult built = RunCommand(std::string(DIME_SNAPSHOT_BINARY) +
                               " build --group '" + group.name + "'" + flags +
                               " --output '" + snap + "'");
  ASSERT_EQ(built.exit_code, 0) << built.output;
  CliResult served = RunCommand(std::string(DIME_CLI_BINARY) +
                                " --snapshot '" + snap + "'");
  ASSERT_EQ(served.exit_code, 0) << served.output;
  EXPECT_EQ(PrintedScrollbar(served.output), expected) << served.output;

  // dime_delta replay takes the same flags; an empty log replays the
  // group as it is.
  const std::string log = *dir_ + "/amazon_empty.dlog";
  {
    std::remove(log.c_str());
    StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(log);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  }
  CliResult replay = RunCommand(std::string(DIME_DELTA_BINARY) + " replay '" +
                                log + "' --base '" + group.name + "'" + flags);
  ASSERT_EQ(replay.exit_code, 0) << replay.output;
  std::vector<std::string> expected_ids;
  for (int e : expected_run.flagged()) {
    expected_ids.push_back(group.entities[e].id);
  }
  EXPECT_EQ(PrintedFlags(replay.output), expected_ids) << replay.output;
}

// The --delta-log watcher waits out its poll interval on a condition
// variable that shutdown signals: a server whose watcher polls every 10 s
// still exits 0 within 3 s of a shutdown request.
TEST_F(CliDeterminismTest, ShutdownDoesNotWaitOutTheWatchInterval) {
  const std::string out = *dir_ + "/watch_server.out";
  const std::string script =
      "timeout 30 " + std::string(DIME_SERVER_BINARY) +
      " --demo --demo-pages 1 --delta-log '" + *dir_ +
      "/watch.dlog' --watch-interval-ms 10000 --port 0 > '" + out +
      "' 2>&1 &\n"
      "pid=$!\n"
      "port=\n"
      "for i in $(seq 1 300); do\n"
      "  port=$(sed -n 's/^dime_server listening on .*:\\([0-9]*\\)$/\\1/p' '" +
      out + "')\n"
      "  [ -n \"$port\" ] && break\n"
      "  sleep 0.1\n"
      "done\n"
      "[ -n \"$port\" ] || { kill $pid; echo no-port; exit 90; }\n"
      "start=$(date +%s%N)\n"
      + std::string(DIME_CLI_BINARY) +
      " --client --port \"$port\" --request shutdown --no-retry\n"
      "wait $pid\n"
      "code=$?\n"
      "end=$(date +%s%N)\n"
      "echo \"server_exit=$code ms=$(( (end - start) / 1000000 ))\"\n";
  CliResult r = RunCommand(script);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const size_t at = r.output.find("server_exit=");
  ASSERT_NE(at, std::string::npos) << r.output;
  int server_exit = -1;
  long ms = -1;
  ASSERT_EQ(std::sscanf(r.output.c_str() + at, "server_exit=%d ms=%ld",
                        &server_exit, &ms),
            2)
      << r.output;
  EXPECT_EQ(server_exit, 0) << r.output;
  EXPECT_LT(ms, 3000) << r.output;
}

// Every group of a corpus must have the first group's schema: dime_server
// refuses a second group of another schema at startup, naming it, rather
// than evaluating the rules against its columns by position.
TEST_F(CliDeterminismTest, ServerRefusesGroupsOfDifferentSchemas) {
  const std::string amazon = amazon_sources_->group_paths[0];
  CliResult server = RunCommand(
      "timeout 30 " + std::string(DIME_SERVER_BINARY) + " --group '" +
      *page_ + "' --group '" + amazon + "' --rules '" + *rules_ +
      "' --venue-ontology --port 0");
  EXPECT_EQ(server.exit_code,
            ExitCodeForStatusCode(StatusCode::kInvalidArgument))
      << server.output;
  EXPECT_NE(server.output.find("group '" + amazon +
                               "' disagrees with the corpus schema"),
            std::string::npos)
      << server.output;
}

// --ontology-mode takes exact or keyword; a misspelling is a usage error
// in every binary that parses it, never a silent exact mapping.
TEST_F(CliDeterminismTest, MisspelledOntologyModeIsRefused) {
  const std::string amazon = amazon_sources_->group_paths[0];
  const std::string sources =
      "--group '" + amazon + "' --rules '" + amazon_sources_->rules_path +
      "' --ontology '" + amazon_sources_->ontologies[0].path +
      "' --ontology-mode keywrod";
  const std::string commands[] = {
      "timeout 30 " + std::string(DIME_SERVER_BINARY) + " " + sources +
          " --port 0",
      std::string(DIME_SNAPSHOT_BINARY) + " build " + sources +
          " --output '" + *dir_ + "/keywrod.snap'",
      // dime_cli takes its group as the first argument.
      std::string(DIME_CLI_BINARY) + " '" + amazon + "' " +
          sources.substr(sources.find("--rules")),
  };
  for (const std::string& command : commands) {
    CliResult r = RunCommand(command);
    EXPECT_EQ(r.exit_code, ExitCodeForStatusCode(StatusCode::kInvalidArgument))
        << command << "\n" << r.output;
    EXPECT_NE(r.output.find("--ontology-mode must be exact or keyword"),
              std::string::npos)
        << command << "\n" << r.output;
  }
}

// A rules file that is not there is NOT_FOUND (exit 3) in all four
// binaries that read one, as a missing group is.
TEST_F(CliDeterminismTest, MissingRulesFileIsNotFound) {
  const std::string missing = *dir_ + "/no_such_rules.txt";
  const std::string log = *dir_ + "/missing_rules.dlog";
  {
    std::remove(log.c_str());
    StatusOr<DeltaLogWriter> writer = DeltaLogWriter::Open(log);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  }
  const std::string commands[] = {
      "timeout 30 " + std::string(DIME_SERVER_BINARY) + " --group '" +
          *page_ + "' --rules '" + missing + "' --port 0",
      std::string(DIME_SNAPSHOT_BINARY) + " build --group '" + *page_ +
          "' --rules '" + missing + "' --output '" + *dir_ +
          "/missing_rules.snap'",
      std::string(DIME_CLI_BINARY) + " '" + *page_ + "' --rules '" + missing +
          "'",
      std::string(DIME_DELTA_BINARY) + " replay '" + log + "' --base '" +
          *page_ + "' --rules '" + missing + "'",
  };
  for (const std::string& command : commands) {
    CliResult r = RunCommand(command);
    EXPECT_EQ(r.exit_code, ExitCodeForStatusCode(StatusCode::kNotFound))
        << command << "\n" << r.output;
    EXPECT_NE(r.output.find(missing), std::string::npos)
        << command << "\n" << r.output;
  }
}

// --demo-pages is capped at kMaxDemoPages in both binaries that generate
// the demo corpus: a larger count is a usage error, refused before any
// page is generated, not an abort in the generator's allocation.
TEST(DemoCorpusCliTest, DemoPageCountAboveTheCapIsRefused) {
  const std::string pages = " --demo --demo-pages 18446744073709551615";
  const std::string commands[] = {
      "timeout 30 " + std::string(DIME_SERVER_BINARY) + pages + " --port 0",
      std::string(DIME_SNAPSHOT_BINARY) + " build" + pages +
          " --output /dev/null/never.snap",
  };
  for (const std::string& command : commands) {
    CliResult r = RunCommand(command);
    EXPECT_EQ(r.exit_code, ExitCodeForStatusCode(StatusCode::kInvalidArgument))
        << command << "\n" << r.output;
    EXPECT_NE(r.output.find("--demo-pages: expected an integer in [0, " +
                            std::to_string(kMaxDemoPages) + "]"),
              std::string::npos)
        << command << "\n" << r.output;
  }
}

// `dime_delta append --value` decodes its cell as a group TSV cell is
// decoded (ParseAttributeCell): '|' splits, pieces are trimmed, empty
// pieces dropped. An entity added through the log then has the values it
// would have had in the base TSV, so its similarity text and content key
// do not depend on the path it came in by.
TEST(DeltaCliTest, AppendedValuesDecodeLikeAGroupTsvCell) {
  char tmpl[] = "/tmp/dime_delta_cli_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string log = dir + "/values.dlog";
  CliResult r = RunCommand(std::string(DIME_DELTA_BINARY) + " append '" +
                           log +
                           "' --group g --op add --id e1"
                           " --value ' a | b ' --value 'x|| |y|'"
                           " --value ' single '");
  ASSERT_EQ(r.exit_code, 0) << r.output;

  StatusOr<DeltaLogContents> contents = ReadDeltaLog(log);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_EQ(contents->records.size(), 1u);
  const std::vector<AttributeValue> expected{{"a", "b"}, {"x", "y"},
                                             {"single"}};
  EXPECT_EQ(contents->records[0].values, expected);

  Group tsv;
  ASSERT_TRUE(ParseGroupTsv("_id\tA\tB\tC\ne1\t a | b \tx|| |y|\t single \n",
                            "g", &tsv)
                  .ok());
  EXPECT_EQ(contents->records[0].values, tsv.entities[0].values);
  std::filesystem::remove_all(dir);
}

// generate_datasets takes its one argument as the output directory, so a
// flag must never be mistaken for one: --help / -h print the usage and
// exit 0, any other flag exits INVALID_ARGUMENT, and neither writes.
TEST(GenerateDatasetsCliTest, FlagsAreNeverTakenAsTheOutputDirectory) {
  char tmpl[] = "/tmp/dime_gen_cli_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  auto run_in_dir = [&](const std::string& arg) {
    return RunCommand("cd '" + dir + "' && " +
                      std::string(DIME_GENERATE_DATASETS_BINARY) + " " + arg);
  };
  for (const char* help : {"--help", "-h"}) {
    CliResult r = run_in_dir(help);
    EXPECT_EQ(r.exit_code, 0) << help << ": " << r.output;
    EXPECT_NE(r.output.find("usage: generate_datasets"), std::string::npos)
        << r.output;
  }
  CliResult bad = run_in_dir("--output");
  EXPECT_EQ(bad.exit_code, ExitCodeForStatusCode(StatusCode::kInvalidArgument))
      << bad.output;
  EXPECT_TRUE(std::filesystem::is_empty(dir))
      << "a refused or --help run wrote into " << dir;
  std::filesystem::remove_all(dir);
}

// A failed export exits with its Status code, never the reserved 1: an
// output path through a regular file is NOT_FOUND, and the message names
// the path.
TEST(GenerateDatasetsCliTest, FailedExportExitsWithItsStatusCode) {
  CliResult r = RunCommand(std::string(DIME_GENERATE_DATASETS_BINARY) +
                           " /dev/null/x");
  EXPECT_EQ(r.exit_code, ExitCodeForStatusCode(StatusCode::kNotFound))
      << r.output;
  EXPECT_NE(r.exit_code, kExitCodeNoStatus);
  EXPECT_NE(r.output.find("/dev/null/x/scholar"), std::string::npos)
      << r.output;
}

}  // namespace
}  // namespace dime
