#include "capow/tasking/task_group.hpp"

#include <cassert>
#include <thread>

#include "capow/telemetry/tracer.hpp"

namespace capow::tasking {

TaskGroup::~TaskGroup() {
  assert(pending_.load(std::memory_order_acquire) == 0 &&
         "TaskGroup destroyed with outstanding tasks; call wait()");
}

void TaskGroup::wait() {
  telemetry::SpanScope span("taskgroup.wait", "tasking");
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (!pool_.try_run_one()) {
      // Nothing to help with: our outstanding tasks are running on other
      // workers. Yield until they finish.
      std::this_thread::yield();
    }
  }
  std::exception_ptr e;
  {
    std::lock_guard lock(exception_mutex_);
    e = std::exchange(first_exception_, nullptr);
  }
  cancelled_.store(false, std::memory_order_release);
  if (e) std::rethrow_exception(e);
}

void TaskGroup::capture_exception(std::exception_ptr e) noexcept {
  // A failed task cancels its siblings (cooperatively): their results
  // would be discarded by wait()'s rethrow, so polling tasks can stop
  // burning cycles on them.
  cancelled_.store(true, std::memory_order_release);
  std::lock_guard lock(exception_mutex_);
  if (!first_exception_) first_exception_ = e;
}

}  // namespace capow::tasking
