// capow::tasking — a small OpenMP-task-like runtime.
//
// The paper's Strassen implementation (BOTS) uses untied OpenMP tasks and
// its CAPS implementation mixes tasking (BFS levels) with work sharing
// (DFS levels). This module provides the two primitives those map onto
// (here the recursions spawn tasks and blocked GEMM work-shares):
//
//   * ThreadPool + TaskGroup — spawn/wait with nested-task support
//     (waiting threads *help* execute queued tasks, so deep recursion
//     never deadlocks regardless of pool size), and
//   * parallel_for — static/dynamic work sharing over index ranges.
//
// The pool is deliberately simple (single mutex-protected queue): the
// algorithms layered on top spawn coarse tasks (quadrant products), so
// queue contention is negligible compared to task bodies, and simplicity
// keeps the semantics easy to test exhaustively.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace capow::tasking {

/// Fixed-size worker pool executing type-erased tasks.
///
/// `ThreadPool(0)` is a valid *inline* pool: submissions execute
/// immediately on the calling thread. This gives a deterministic serial
/// mode used by tests and by single-thread experiment configurations.
class ThreadPool {
 public:
  /// Spawns `workers` threads. 0 => inline execution mode.
  explicit ThreadPool(unsigned workers);

  /// Joins all workers; pending tasks are drained before shutdown.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for an inline pool).
  unsigned worker_count() const noexcept { return workers_; }

  /// Degree of parallelism this pool represents: max(1, worker_count()).
  unsigned concurrency() const noexcept {
    return workers_ == 0 ? 1u : workers_;
  }

  /// Enqueues a task. On an inline pool the task runs before submit()
  /// returns.
  void submit(std::function<void()> task);

  /// Runs one queued task on the calling thread if any is available.
  /// Returns false when the queue was empty. Used by TaskGroup::wait()
  /// so that blocked parents help their children ("helping" scheduler).
  bool try_run_one();

  /// Index of the calling pool worker in [0, worker_count()), or -1 when
  /// called from a non-worker thread. Stable for the worker's lifetime;
  /// the trace module keys per-thread counters on it.
  static int worker_index() noexcept;

 private:
  void worker_loop(unsigned index);

  unsigned workers_;
  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace capow::tasking
