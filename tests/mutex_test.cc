#include "src/common/mutex.h"

#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <thread>
#include <vector>

// Negative-compilation gallery: what Clang's -Werror=thread-safety
// (enabled by the top-level CMakeLists for every Clang build) rejects.
// None of these compile — each is the exact class of race the annotated
// primitives exist to prevent. Verified against clang-17; the diagnostics
// are quoted verbatim.
//
//   struct Counter {
//     dime::Mutex mu;
//     int value DIME_GUARDED_BY(mu) = 0;
//   };
//
//   void Bad1(Counter* c) {
//     c->value++;  // error: writing variable 'value' requires holding
//                  // mutex 'mu' exclusively [-Werror,-Wthread-safety-analysis]
//   }
//
//   void Bad2(Counter* c) {
//     c->mu.Lock();
//     c->value++;
//   }  // error: mutex 'mu' is still held at the end of function
//      // [-Werror,-Wthread-safety-analysis]
//
//   void Bad3(Counter* c) DIME_REQUIRES(c->mu) {
//     dime::MutexLock lock(&c->mu);  // error: acquiring mutex 'mu' that is
//                                    // already held
//   }
//
//   void Bad4(dime::Mutex* mu, dime::CondVar* cv) {
//     cv->Wait(mu);  // error: calling function 'Wait' requires holding
//                    // mutex 'mu' exclusively
//   }
//
// Conversely, deleting the DIME_GUARDED_BY(mu) from Counter::value makes
// Bad1 and Bad2 compile silently — stripping one annotation removes
// exactly the protection, which is why every shared field in
// sharded_dime.cc / corpus.cc / fault_injection.cc carries one (and why
// removing one there fails the Clang build: the locked accesses remain,
// and DIME_EXCLUDES/DIME_REQUIRES contracts referencing the field's mutex
// no longer type-check against an unannotated field's unlocked uses).

namespace dime {
namespace {

TEST(MutexTest, LockUnlockTryLock) {
  Mutex mu;
  mu.Lock();
  EXPECT_FALSE(mu.TryLock());  // non-reentrant: held by us already
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, MutexLockIsScoped) {
  Mutex mu;
  {
    MutexLock lock(&mu);
    EXPECT_FALSE(mu.TryLock());
  }
  // Released on scope exit.
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, GuardedCounterIsExactUnderContention) {
  struct {
    Mutex mu;
    int value DIME_GUARDED_BY(mu) = 0;
  } counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter]() {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&counter.mu);
        ++counter.value;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  MutexLock lock(&counter.mu);
  EXPECT_EQ(counter.value, kThreads * kIncrements);
}

TEST(MutexTest, AssertHeldCompilesAndIsFree) {
  Mutex mu;
  MutexLock lock(&mu);
  mu.AssertHeld();  // static annotation only; must not deadlock or throw
}

TEST(CondVarTest, ProducerConsumer) {
  struct {
    Mutex mu;
    std::deque<int> queue DIME_GUARDED_BY(mu);
    bool done DIME_GUARDED_BY(mu) = false;
  } state;
  CondVar cv;
  constexpr int kItems = 500;

  std::thread consumer([&]() {
    int expected = 0;
    MutexLock lock(&state.mu);
    while (true) {
      while (state.queue.empty() && !state.done) cv.Wait(&state.mu);
      while (!state.queue.empty()) {
        EXPECT_EQ(state.queue.front(), expected++);
        state.queue.pop_front();
      }
      if (state.done) break;
    }
    EXPECT_EQ(expected, kItems);
  });

  for (int i = 0; i < kItems; ++i) {
    MutexLock lock(&state.mu);
    state.queue.push_back(i);
    cv.Signal();
  }
  {
    MutexLock lock(&state.mu);
    state.done = true;
    cv.SignalAll();
  }
  consumer.join();
}

TEST(CondVarTest, WaitForTimesOutWhenNeverSignaled) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  EXPECT_FALSE(cv.WaitFor(&mu, std::chrono::milliseconds(5)));
  // The mutex must be re-held after the timeout path too.
  EXPECT_FALSE(mu.TryLock());
}

TEST(CondVarTest, WaitForReturnsTrueWhenSignaled) {
  struct {
    Mutex mu;
    bool ready DIME_GUARDED_BY(mu) = false;
  } state;
  CondVar cv;
  std::thread signaler([&]() {
    MutexLock lock(&state.mu);
    state.ready = true;
    cv.Signal();
  });
  bool saw_ready = false;
  {
    MutexLock lock(&state.mu);
    // Loop: Signal may fire before we wait; WaitFor bounds each sleep.
    for (int spin = 0; spin < 1000 && !state.ready; ++spin) {
      cv.WaitFor(&state.mu, std::chrono::milliseconds(10));
    }
    saw_ready = state.ready;
  }
  signaler.join();
  EXPECT_TRUE(saw_ready);
}

}  // namespace
}  // namespace dime
