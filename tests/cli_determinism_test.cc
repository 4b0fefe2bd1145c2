// Golden determinism test for dime_cli (DESIGN.md §7.9): the printed
// output must be byte-identical across --threads 1/2/8. For --engine
// sharded the decisions — scrollbar, partitions, exit code — are
// compared without --stats (step-1 effort counters are schedule-dependent
// by design) and must also match the serial --engine plus output exactly.
//
// The test exports a scholar-2999-scale page through the real TSV/rule
// codecs and spawns the real binary, so it covers the whole path a user
// sees: load → prepare → engine → print.
//
// DIME_CLI_BINARY is injected by CMake.

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "src/datagen/export.h"

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
    ASSERT_TRUE(ExportBenchmarkSuite(*dir_, options, &manifest));
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

}  // namespace
}  // namespace dime
