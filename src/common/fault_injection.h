#ifndef DIME_COMMON_FAULT_INJECTION_H_
#define DIME_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <string>

/// \file fault_injection.h
/// Named failpoints for testing degradation paths. Production code marks
/// the places where the outside world can fail (an IO read, a worker
/// thread, deadline pressure) with DIME_FAULT_POINT("name"); tests arm a
/// failpoint for a bounded number of hits and assert the failure surfaces
/// as a Status instead of a crash.
///
/// When nothing is armed — always, outside tests — a failpoint costs one
/// acquire atomic load (uncontended; free on x86).
///
/// Failpoint registry (every name in the tree, machine-checked):
///   "io/read"                ReadTextFile (group TSV, rule and
///                            ontology file loads) fails with IO_ERROR
///   "parallel/worker-fault"  a DIME+ verification or partition task
///                            throws
///   "engine/deadline"        engines behave as if the deadline expired
///   "store/mmap"             snapshot loads take the read() fallback
///   "store/swap"             ReloadFromSnapshot fails (UNAVAILABLE)
///                            before anything is installed
///   "store/delta-corrupt"    the next delta-log record fails its CRC
///                            check (DATA_LOSS degradation path)
///   "epoch/unmap-delay"      a retiring epoch sleeps before unmapping,
///                            widening the swap/serve race for tests
///   "stress/churn"           test-only: drives the arm/trigger churn in
///                            the thread-safety stress harness
///   "exec/task-fault"        a task spawned on the exec scheduler throws
///
/// Usage (in a test):
///   ScopedFailpoint fp(failpoints::kIoRead);   // arm for 1 hit
///   Group g;
///   EXPECT_EQ(LoadGroup(path, "g", &g).code(), StatusCode::kIoError);

namespace dime {
namespace failpoints {

/// The single source of truth for failpoint names. Arm/trigger call sites
/// must name one of these constants — never a string literal — so a typo
/// cannot silently arm (or probe) a failpoint that no code path checks.
/// `dime_lint`'s failpoint-registry rule enforces all three legs:
/// call sites reference a constant, every constant fires in at least one
/// test, and the doc list above matches this block exactly.
inline constexpr char kIoRead[] = "io/read";
inline constexpr char kWorkerFault[] = "parallel/worker-fault";
inline constexpr char kEngineDeadline[] = "engine/deadline";
inline constexpr char kStoreMmap[] = "store/mmap";
inline constexpr char kStoreSwap[] = "store/swap";
inline constexpr char kStoreDeltaCorrupt[] = "store/delta-corrupt";
inline constexpr char kEpochUnmapDelay[] = "epoch/unmap-delay";
inline constexpr char kStressChurn[] = "stress/churn";
inline constexpr char kExecTaskFault[] = "exec/task-fault";

}  // namespace failpoints

class FaultInjection {
 public:
  /// Arms `name` to fire on the next `count` hits, after letting the
  /// first `skip` hits pass — `skip` positions a deterministic failure
  /// mid-run (e.g. "survive step 1, fail at the second partition of
  /// step 3"). Re-arming replaces the previous state.
  static void Arm(const std::string& name, int count = 1, int skip = 0);

  /// Disarms `name` (no-op if not armed).
  static void Disarm(const std::string& name);

  /// Disarms everything (test teardown safety net).
  static void DisarmAll();

  /// True iff `name` is armed and a trigger remains; consumes one trigger.
  /// Thread-safe: concurrent hits consume distinct triggers.
  static bool Triggered(const char* name);

  /// Remaining triggers for `name` (0 if not armed).
  static int Remaining(const std::string& name);

  /// Fast path: true iff any failpoint is armed anywhere. Acquire pairs
  /// with the release store in Arm/Disarm so an observed non-zero count
  /// implies the arming write is visible (full rationale in the .cc).
  static bool AnyArmed() {
    return armed_count_.load(std::memory_order_acquire) > 0;
  }

 private:
  static std::atomic<int> armed_count_;
};

/// RAII armer: arms on construction, disarms on destruction — a test
/// that throws or fails mid-way cannot leak an armed failpoint into the
/// next test.
class ScopedFailpoint {
 public:
  explicit ScopedFailpoint(std::string name, int count = 1, int skip = 0)
      : name_(std::move(name)) {
    FaultInjection::Arm(name_, count, skip);
  }
  ~ScopedFailpoint() { FaultInjection::Disarm(name_); }

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string name_;
};

}  // namespace dime

/// True when the named failpoint fires. Evaluates to false with a single
/// acquire atomic load unless a test armed something.
#define DIME_FAULT_POINT(name)              \
  (::dime::FaultInjection::AnyArmed() &&    \
   ::dime::FaultInjection::Triggered(name))

#endif  // DIME_COMMON_FAULT_INJECTION_H_
