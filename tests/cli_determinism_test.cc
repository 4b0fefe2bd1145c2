// Golden determinism test for dime_cli (DESIGN.md §7.9): the printed
// output must be byte-identical across --threads 1/2/8. For --engine
// sharded the decisions — scrollbar, partitions, exit code — are
// compared without --stats (step-1 effort counters are schedule-dependent
// by design) and must also match the serial --engine plus output exactly.
//
// The test exports a scholar-2999-scale page through the real TSV/rule
// codecs and spawns the real binary, so it covers the whole path a user
// sees: load → prepare → engine → print. `dime_delta replay --rules`
// runs the same page through its merge-then-DIME+ path and must flag
// exactly what Algorithm 1 flags on the merged group.
//
// The last tests spawn generate_datasets: it never takes a flag as its
// output directory, and a failed export exits with its Status code.
//
// DIME_CLI_BINARY, DIME_DELTA_BINARY and DIME_GENERATE_DATASETS_BINARY are
// injected by CMake.

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
#include "src/core/dime.h"
#include "src/datagen/export.h"
#include "src/ontology/builtin.h"
#include "src/rules/rule_io.h"
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
    options.amazon_categories = 1;  // keep the (unused) amazon half cheap
    options.amazon_products = 20;
    options.seed = 6000;
    ExportManifest manifest;
    const Status exported = ExportBenchmarkSuite(*dir_, options, &manifest);
    ASSERT_TRUE(exported.ok()) << exported.ToString();
    ASSERT_EQ(manifest.scholar_groups.size(), 1u);
    page_ = new std::string(manifest.scholar_groups[0]);
    rules_ = new std::string(manifest.scholar_rules);
  }

  static void TearDownTestSuite() {
    std::string cmd = "rm -rf '" + *dir_ + "'";
    // lint: unchecked-status-ok(best-effort temp cleanup)
    (void)system(cmd.c_str());
    delete dir_;
    delete page_;
    delete rules_;
  }

  static CliResult RunCli(const std::string& engine, unsigned threads) {
    std::string cmd = std::string(DIME_CLI_BINARY) + " '" + *page_ +
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
    std::vector<PositiveRule> positive;
    std::vector<NegativeRule> negative;
    std::string error;
    ASSERT_TRUE(
        LoadRuleSet(rules_path, merged.schema, &positive, &negative, &error))
        << error;
    DimeContext context;
    context.ontologies.push_back(
        OntologyRef{&VenueOntology(), MapMode::kExactName});
    context.ontologies.push_back(
        OntologyRef{&VenueOntology(), MapMode::kKeyword});
    DimeResult expected = RunDime(merged, positive, negative, context);
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
  static std::string* rules_;
};

std::string* CliDeterminismTest::dir_ = nullptr;
std::string* CliDeterminismTest::page_ = nullptr;
std::string* CliDeterminismTest::rules_ = nullptr;

TEST_F(CliDeterminismTest, ShardedEngineDecisionsAreByteIdentical) {
  CliResult one = RunCli("sharded", 1);
  ASSERT_EQ(one.exit_code, 0) << one.output;
  ASSERT_FALSE(one.output.empty());
  for (unsigned threads : {2u, 8u}) {
    CliResult r = RunCli("sharded", threads);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    EXPECT_EQ(r.output, one.output) << "--threads " << threads
                                    << " output diverged";
  }
}

TEST_F(CliDeterminismTest, ShardedEngineMatchesSerialPlusOutput) {
  CliResult plus = RunCli("plus", 1);
  ASSERT_EQ(plus.exit_code, 0) << plus.output;
  CliResult sharded = RunCli("sharded", 8);
  ASSERT_EQ(sharded.exit_code, 0) << sharded.output;
  EXPECT_EQ(sharded.output, plus.output);
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
