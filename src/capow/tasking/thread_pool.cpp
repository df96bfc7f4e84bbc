#include "capow/tasking/thread_pool.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "capow/fault/fault.hpp"
#include "capow/telemetry/tracer.hpp"

namespace capow::tasking {

namespace {
thread_local int t_worker_index = -1;

/// Injected scheduling jitter: stall this task before it runs (models a
/// preempted/throttled worker). Applied at every execution point —
/// worker loop, inline submit, and helping steals — so the fault
/// schedule does not depend on who ends up running the task.
void maybe_stall_task() {
  fault::FaultInjector* inj = fault::FaultInjector::active();
  if (inj == nullptr) return;
  if (!inj->fire_next(fault::Site::kTaskStall)) return;
  inj->record(fault::Event::kTaskStall);
  telemetry::instant("fault.task.stall", "tasking");
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(inj->plan().task_stall_ms));
}
}  // namespace

ThreadPool::ThreadPool(unsigned workers) : workers_(workers) {
  threads_.reserve(workers_);
  for (unsigned i = 0; i < workers_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_ == 0) {
    telemetry::SpanScope span("task.run.inline", "tasking");
    maybe_stall_task();
    task();
    return;
  }
  telemetry::instant("task.enqueue", "tasking");
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    std::lock_guard lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  // A non-worker (or a worker inside wait()) stealing queued work — the
  // helping scheduler in action; distinct span name so the timeline
  // shows who helped whom.
  telemetry::SpanScope span("task.run.help", "tasking");
  maybe_stall_task();
  task();
  return true;
}

int ThreadPool::worker_index() noexcept { return t_worker_index; }

void ThreadPool::worker_loop(unsigned index) {
  t_worker_index = static_cast<int>(index);
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stopping_ must be true here; drain-before-stop is guaranteed
        // because we only exit on an empty queue.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      telemetry::SpanScope span("task.run", "tasking", "worker", index);
      maybe_stall_task();
      task();
    }
  }
}

}  // namespace capow::tasking
