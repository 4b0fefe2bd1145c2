#ifndef DIME_COMMON_DEADLINE_H_
#define DIME_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <limits>

#include "src/common/status.h"

/// \file deadline.h
/// Monotonic deadlines and cooperative cancellation for the engines.
///
/// A production service cannot let one pathological group monopolize a
/// worker: RunDime / RunDimePlus / RunDimePlusSharded accept a RunControl
/// and check it at partition / rule-prefix boundaries, returning the partial
/// (but still monotone) scrollbar computed so far together with a
/// DEADLINE_EXCEEDED or CANCELLED status.
///
/// Deadlines are measured on std::chrono::steady_clock so wall-clock
/// adjustments cannot fire or starve them.

namespace dime {

/// A point on the monotonic clock after which work should stop. Default
/// constructed deadlines are infinite (never expire), so threading a
/// Deadline through a call chain costs nothing when unused.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Infinite: never expires.
  Deadline() : when_(Clock::time_point::max()), infinite_(true) {}

  explicit Deadline(Clock::time_point when) : when_(when), infinite_(false) {}

  /// A deadline `duration` from now.
  template <typename Rep, typename Period>
  static Deadline After(std::chrono::duration<Rep, Period> duration) {
    return Deadline(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       duration));
  }

  static Deadline AfterMillis(int64_t millis) {
    return After(std::chrono::milliseconds(millis));
  }

  /// Already expired (useful in tests: forces immediate truncation).
  static Deadline Expired() { return Deadline(Clock::time_point::min()); }

  static Deadline Infinite() { return Deadline(); }

  bool is_infinite() const { return infinite_; }

  bool HasExpired() const { return !infinite_ && Clock::now() >= when_; }

  Clock::time_point time() const { return when_; }

 private:
  Clock::time_point when_;
  bool infinite_;
};

/// Cooperative cancellation: one writer flips the flag, any number of
/// workers poll it. Copyable handles are not provided — share by pointer
/// (the engines take `const CancellationToken*`, nullptr = never).
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool IsCancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Everything an engine needs to decide whether to keep going. Default
/// constructed = run to completion (the existing call sites).
struct RunControl {
  Deadline deadline;
  const CancellationToken* cancel = nullptr;

  /// Non-OK when the run should stop: CANCELLED dominates (an explicit
  /// user action beats a timer), then DEADLINE_EXCEEDED. The `where`
  /// argument lands in the message so truncation points are identifiable.
  Status Check(const char* where) const {
    if (cancel != nullptr && cancel->IsCancelled()) {
      return CancelledError(std::string("cancelled at ") + where);
    }
    if (deadline.HasExpired()) {
      return DeadlineExceededError(std::string("deadline expired at ") +
                                   where);
    }
    return OkStatus();
  }

  /// True when no deadline and no token are set — lets hot loops skip the
  /// clock read entirely.
  bool IsUnbounded() const {
    return deadline.is_infinite() && cancel == nullptr;
  }
};

}  // namespace dime

#endif  // DIME_COMMON_DEADLINE_H_
