#ifndef DIME_BENCH_BENCH_UTIL_H_
#define DIME_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/dime.h"
#include "src/core/metrics.h"
#include "src/datagen/scholar_gen.h"

/// \file bench_util.h
/// Shared helpers for the per-figure benchmark binaries. Every binary
/// prints the rows of the corresponding paper table/figure; set
/// DIME_BENCH_QUICK=1 to shrink workloads while iterating.

namespace dime {
namespace bench {

inline bool QuickMode() {
  const char* v = std::getenv("DIME_BENCH_QUICK");
  return v != nullptr && v[0] == '1';
}

/// True when assertions are compiled in (no NDEBUG): DIME_DCHECK bodies
/// and unoptimized code make such timings incomparable to Release runs.
inline constexpr bool BuiltWithAssertions() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

/// Build type of the dime library linked into this binary, as recorded in
/// benchmark JSON ("release"/"debug"). Distinct from google-benchmark's
/// own context.library_build_type, which describes the system benchmark
/// library, not our code.
inline const char* LibraryBuildType() {
  return BuiltWithAssertions() ? "debug" : "release";
}

/// The timing binaries (fig9, micro_sim) call this first. A non-Release
/// build refuses to time anything — a debug timing silently landing in a
/// frozen baseline is worse than no timing — unless the operator passes
/// --allow-debug (which is consumed from argv either way). Returns true
/// when the run may proceed.
inline bool GuardReleaseBuild(int* argc, char** argv) {
  bool allow_debug = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--allow-debug") == 0) {
      allow_debug = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  if (!BuiltWithAssertions()) return true;
  if (allow_debug) {
    std::fprintf(stderr,
                 "WARNING: assertions are compiled in (non-Release build); "
                 "timings recorded under --allow-debug are not comparable "
                 "to Release numbers.\n");
    return true;
  }
  std::fprintf(stderr,
               "refusing to benchmark a non-Release build (NDEBUG is not "
               "defined, so DIME_DCHECKs run inside the timed region).\n"
               "Configure with -DCMAKE_BUILD_TYPE=Release, or pass "
               "--allow-debug to record anyway.\n");
  return false;
}

inline void PrintRule(char c = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

inline void PrintTitle(const std::string& title) {
  PrintRule('=');
  std::printf("%s\n", title.c_str());
  PrintRule('=');
}

inline void PrintPrf(const char* label, const Prf& prf) {
  std::printf("%-28s P=%.2f  R=%.2f  F=%.2f\n", label, prf.precision,
              prf.recall, prf.f1);
}

/// Page mix for the 20-page detail experiments (Fig. 8 / Table I): error
/// composition varies page to page like real Scholar pages, including a
/// few pages with medium-sized ([10,100)) partitions — a prolific
/// cross-disciplinary side line (correct, the NR2 false-positive block)
/// or a prolific namesake (a mid-sized all-error partition).
inline ScholarGenOptions DetailPageOptions(size_t i, bool quick) {
  ScholarGenOptions gen;
  gen.num_correct = quick ? 120 : 320;
  gen.seed = 500 + i * 13;
  gen.garbage_pubs = 3 + (i * 7) % 6;
  gen.chem_namesake_pubs = 2 + (i * 5) % 5;
  gen.cs_namesake_pubs = 1 + (i * 3) % 5;
  gen.variant_correct_pubs = 1 + i % 3;
  gen.side_interest_pubs = i % 3;
  gen.secondary_field_pubs = i % 2 + (i % 5 == 0 ? 2 : 0);
  if (i % 4 == 1) gen.secondary_field_pubs = 12 + i;  // big side line
  if (i % 4 == 3) gen.chem_namesake_pubs = 12 + i;    // prolific namesake
  return gen;
}

/// Best scrollbar position of a DIME result (the paper's "Best Result").
inline Prf BestPrefix(const Group& group, const DimeResult& result) {
  Prf best;
  best.f1 = -1.0;
  for (const auto& flagged : result.flagged_by_prefix) {
    Prf prf = EvaluateFlagged(group, flagged);
    if (prf.f1 > best.f1) best = prf;
  }
  if (best.f1 < 0) best = Prf{};
  return best;
}

}  // namespace bench
}  // namespace dime

#endif  // DIME_BENCH_BENCH_UTIL_H_
