// Fixture-driven tests for dime_lint. Each fixture under testdata/ is a
// miniature repo tree; the test spawns the real binary against it and
// asserts on exit code and findings. The fixtures double as executable
// documentation of what each rule does and does not flag.
//
// DIME_LINT_BINARY and DIME_LINT_TESTDATA are injected by CMake.

#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "gtest/gtest.h"

namespace dime {
namespace {

struct LintResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

LintResult RunCommand(const std::string& cmd) {
  LintResult result;
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

LintResult RunLint(const std::string& fixture, const std::string& rule) {
  std::string cmd = std::string(DIME_LINT_BINARY) + " --root " +
                    std::string(DIME_LINT_TESTDATA) + "/" + fixture;
  if (!rule.empty()) cmd += " --rule " + rule;
  return RunCommand(cmd);
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(DimeLintCli, ListRulesPrintsEveryRule) {
  LintResult r = RunCommand(std::string(DIME_LINT_BINARY) + " --list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule :
       {"unchecked-status", "include-layering", "failpoint-registry",
        "raw-concurrency", "banned-functions", "raw-intrinsics"}) {
    EXPECT_TRUE(Contains(r.output, rule)) << "missing rule: " << rule;
  }
}

TEST(DimeLintCli, UnknownRuleIsUsageError) {
  LintResult r = RunLint("waivers", "no-such-rule");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(Contains(r.output, "unknown rule")) << r.output;
}

TEST(UncheckedStatus, FlagsBareCallAndVoidDiscard) {
  LintResult r = RunLint("unchecked_status_firing", "unchecked-status");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(Contains(r.output, "'DoThing' is ignored")) << r.output;
  EXPECT_TRUE(Contains(r.output, "`(void)` discard")) << r.output;
  EXPECT_TRUE(Contains(r.output, "2 findings")) << r.output;
}

TEST(UncheckedStatus, CleanOnCheckedWaivedAndMultiline) {
  LintResult r = RunLint("unchecked_status_clean", "unchecked-status");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(Contains(r.output, "clean")) << r.output;
}

TEST(IncludeLayering, FlagsUpwardIncludeOnly) {
  LintResult r = RunLint("include_layering_firing", "include-layering");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(Contains(r.output, "may not include 'src/core/'")) << r.output;
  // index -> sim is a declared edge; it must not fire.
  EXPECT_FALSE(Contains(r.output, "may not include 'src/sim/'")) << r.output;
  EXPECT_TRUE(Contains(r.output, "1 finding in")) << r.output;
}

TEST(IncludeLayering, CleanWhenEveryEdgeIsDeclared) {
  LintResult r = RunLint("include_layering_clean", "include-layering");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// The serving library may not reach the research harness: a generator
// header that includes the LDA theme builder is a layering error.
TEST(IncludeLayering, FlagsDatagenReachingTheHarness) {
  LintResult r = RunLint("include_layering_datagen_firing", "include-layering");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(Contains(r.output,
                       "module 'datagen' may not include 'src/topicmodel/'"))
      << r.output;
  // datagen -> core is a declared edge; it must not fire.
  EXPECT_FALSE(Contains(r.output, "may not include 'src/core/'")) << r.output;
  EXPECT_TRUE(Contains(r.output, "1 finding in")) << r.output;
}

TEST(IncludeLayering, ReproMayReachTheHarnessAndTheServingModules) {
  LintResult r = RunLint("include_layering_repro_clean", "include-layering");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(FailpointRegistry, FlagsDocDriftLiteralsAndUntestedNames) {
  LintResult r = RunLint("failpoint_registry_firing", "failpoint-registry");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(Contains(r.output, "missing from the doc list")) << r.output;
  EXPECT_TRUE(Contains(r.output, "has no registered constant")) << r.output;
  EXPECT_TRUE(Contains(r.output, "uses a string literal")) << r.output;
  EXPECT_TRUE(Contains(r.output, "kUnregistered")) << r.output;
  EXPECT_TRUE(Contains(r.output, "never exercised by any test")) << r.output;
  EXPECT_TRUE(Contains(r.output, "5 findings")) << r.output;
}

TEST(FailpointRegistry, CleanWhenRegistryDocsAndTestsAgree) {
  LintResult r = RunLint("failpoint_registry_clean", "failpoint-registry");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(RawConcurrency, FlagsStdPrimitivesAndUnannotatedMutexMembers) {
  LintResult r = RunLint("raw_concurrency_firing", "raw-concurrency");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(Contains(r.output, "raw std::lock_guard")) << r.output;
  EXPECT_TRUE(Contains(r.output, "raw std::mutex")) << r.output;
  EXPECT_TRUE(Contains(r.output, "DIME_GUARDED_BY")) << r.output;
  EXPECT_TRUE(Contains(r.output, "3 findings")) << r.output;
}

TEST(RawConcurrency, CleanOnAnnotatedPrimitives) {
  LintResult r = RunLint("raw_concurrency_clean", "raw-concurrency");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(BannedFunctions, FlagsUnsafeCallsAndLibraryStderr) {
  LintResult r = RunLint("banned_functions_firing", "banned-functions");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(Contains(r.output, "sprintf is banned")) << r.output;
  EXPECT_TRUE(Contains(r.output, "strcpy is banned")) << r.output;
  EXPECT_TRUE(Contains(r.output, "strtok is banned")) << r.output;
  EXPECT_TRUE(Contains(r.output, "rand() is banned")) << r.output;
  EXPECT_TRUE(Contains(r.output, "logging sink")) << r.output;
  EXPECT_TRUE(Contains(r.output, "5 findings")) << r.output;
}

TEST(BannedFunctions, CleanOnSnprintfLookalikesAndBinStderr) {
  LintResult r = RunLint("banned_functions_clean", "banned-functions");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(RawIntrinsics, FlagsIncludesAndProbesOutsideTheSimSeam) {
  LintResult r = RunLint("raw_intrinsics_firing", "raw-intrinsics");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(Contains(r.output, "intrinsics header outside src/sim/"))
      << r.output;
  EXPECT_TRUE(Contains(r.output, "__builtin_cpu_supports outside"))
      << r.output;
  // rogue_kernel.cc sits in src/sim/, so its include (line 3) is
  // sanctioned even though its direct CPUID probe is not.
  EXPECT_FALSE(Contains(r.output, "rogue_kernel.cc:3")) << r.output;
  EXPECT_TRUE(Contains(r.output, "rogue_kernel.cc:7")) << r.output;
  EXPECT_TRUE(Contains(r.output, "3 findings")) << r.output;
}

TEST(RawIntrinsics, CleanOnSimKernelsDispatchTuAndWaivedShim) {
  LintResult r = RunLint("raw_intrinsics_clean", "raw-intrinsics");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(Contains(r.output, "clean")) << r.output;
}

// The waivers fixture exercises all three waiver behaviors at once: valid
// waivers (inline and comment-line) silence findings; a waiver naming an
// unknown rule and a waiver with no reason are findings themselves — and
// an invalid waiver does NOT silence the line it sits on.
TEST(Waivers, ValidSilencesInvalidIsItselfAFinding) {
  LintResult r = RunLint("waivers", "");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(Contains(r.output, "unknown rule 'no-such-rule'")) << r.output;
  EXPECT_TRUE(Contains(r.output, "has no reason")) << r.output;
  // The empty-reason waiver does not shield its std::mutex.
  EXPECT_TRUE(Contains(r.output, "waivers.cc:18")) << r.output;
  // The valid inline and comment-line waivers do shield theirs.
  EXPECT_FALSE(Contains(r.output, "waivers.cc:6")) << r.output;
  EXPECT_FALSE(Contains(r.output, "waivers.cc:12")) << r.output;
  EXPECT_TRUE(Contains(r.output, "3 findings")) << r.output;
}

}  // namespace
}  // namespace dime
