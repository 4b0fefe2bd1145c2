#ifndef DIME_EXEC_POOL_H_
#define DIME_EXEC_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"

/// \file pool.h
/// The work-stealing task scheduler the DIME+ engine runs on (DESIGN.md
/// §7.9). A WorkStealingPool owns a fixed set of worker
/// threads; engines spawn chunky tasks (thousands of pair verifications
/// each) into a TaskGroup and then Wait(), which makes the calling thread
/// the pool's n-th executor — so a pool built for `num_threads = 1` has
/// zero worker threads and runs every task inline on the caller, giving
/// an honest single-thread baseline and fully deterministic `--threads 1`
/// execution.
///
/// Scheduling: each worker owns a deque; it pops its own bottom (LIFO,
/// cache-warm), drains the shared injection queue next, and steals from
/// the top of sibling deques (FIFO, oldest-first) when idle. External
/// threads (engines, the serving workers) submit to the injection queue.
///
/// Failure model: a task that throws never escapes the pool. The first
/// exception is captured on its TaskGroup, the group is cancelled
/// (unstarted tasks are skipped), and the engine maps the captured
/// exception to its documented degradation path (one rerun on one
/// executor, then an INTERNAL status). Deadlines/cancellation are
/// cooperative: task bodies poll their RunControl and call
/// TaskGroup::RecordControl, which also cancels the group. The "exec/task-fault" failpoint fires inside the
/// task runner so every engine built on the pool inherits a tested
/// fault path.

namespace dime {
namespace exec {

struct PoolOptions {
  /// Total executor count including the caller participating via
  /// TaskGroup::Wait(); 0 resolves through ResolveThreadCount (the
  /// --threads / DIME_THREADS / hardware_concurrency precedence).
  unsigned num_threads = 0;
};

/// The one thread-count rule, re-exported at the scheduler boundary so
/// binaries configure pools without reaching into src/common directly.
/// Delegates to dime::ResolveThreadCount.
unsigned ResolveThreadCount(unsigned requested);

class TaskGroup;

class WorkStealingPool {
 public:
  explicit WorkStealingPool(const PoolOptions& options = {});
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Executors available to a waiting TaskGroup: worker threads + 1 for
  /// the caller. Engines size their task decomposition off this.
  unsigned thread_count() const { return num_threads_; }

 private:
  friend class TaskGroup;

  struct Task {
    TaskGroup* group = nullptr;
    std::function<void()> fn;
  };

  /// One worker's deque; own pops take the back (LIFO), steals take the
  /// front (FIFO), both under the per-worker mutex — stealing is rare
  /// with chunky tasks, so a striped mutex beats a lock-free deque here
  /// on simplicity with no measurable cost.
  struct alignas(64) WorkerQueue {
    Mutex mu;
    std::deque<Task> tasks DIME_GUARDED_BY(mu);
  };

  void Submit(Task task);
  /// Pops and runs one task from anywhere in the pool (injection queue
  /// first for external callers, own deque first for workers). Returns
  /// false when no task was found.
  bool TryRunOneTask();
  bool PopTask(Task* out);
  void WorkerLoop(unsigned index);
  static void Execute(Task& task);

  unsigned num_threads_ = 1;  // workers + caller
  std::vector<std::unique_ptr<WorkerQueue>> queues_;  // one per worker
  Mutex inject_mu_;
  std::deque<Task> injected_ DIME_GUARDED_BY(inject_mu_);

  /// Sleep/wake: idle workers wait on `wake_cv_`; every Submit bumps
  /// `work_epoch_` under `wake_mu_` and signals, so a worker that saw a
  /// stale epoch before deciding to sleep re-scans instead of waiting.
  Mutex wake_mu_;
  CondVar wake_cv_;
  uint64_t work_epoch_ DIME_GUARDED_BY(wake_mu_) = 0;
  /// Monotone shutdown flag (relaxed: workers re-check after every wake
  /// and at every scan; a stale read only delays exit by one scan).
  std::atomic<bool> stop_{false};

  std::vector<std::thread> workers_;
};

/// A batch of tasks awaited together, carrying the batch's failure state.
/// Groups are cheap; engines create one per phase. Multiple groups may
/// share one pool concurrently (the serving path does).
class TaskGroup {
 public:
  explicit TaskGroup(WorkStealingPool* pool) : pool_(pool) {}
  /// Waits for all spawned tasks (cancelling first), so a group can never
  /// outlive work that references it.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `fn`. May be called from inside another task of the same
  /// pool.
  void Spawn(std::function<void()> fn);

  /// Marks the group cancelled: tasks not yet started are skipped (their
  /// completion is still counted, so Wait() terminates). Idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  /// True once Cancel/RecordException/RecordControl ran. Monotone flag,
  /// acquire-read so a true implies the recorded failure is visible.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Records the first non-OK control status (deadline/cancellation) and
  /// cancels the group.
  void RecordControl(Status st) DIME_EXCLUDES(mu_);

  /// Records the first task exception and cancels the group.
  void RecordException(std::exception_ptr e) DIME_EXCLUDES(mu_);

  /// Blocks until every spawned task has finished or been skipped. The
  /// calling thread executes pool tasks while it waits (it is the n-th
  /// executor). After Wait(), exception() / control_status() are stable.
  void Wait() DIME_EXCLUDES(mu_);

  /// First captured task exception (null if none). Call after Wait().
  std::exception_ptr exception() const DIME_EXCLUDES(mu_);

  /// First recorded control failure (OK if none). Call after Wait().
  Status control_status() const DIME_EXCLUDES(mu_);

 private:
  friend class WorkStealingPool;

  void TaskDone() DIME_EXCLUDES(mu_);

  WorkStealingPool* pool_;
  std::atomic<bool> cancelled_{false};
  mutable Mutex mu_;
  CondVar done_cv_;
  size_t pending_ DIME_GUARDED_BY(mu_) = 0;
  std::exception_ptr exception_ DIME_GUARDED_BY(mu_);
  Status control_status_ DIME_GUARDED_BY(mu_);
};

}  // namespace exec
}  // namespace dime

#endif  // DIME_EXEC_POOL_H_
