#include "capow/trace/counters.hpp"

#include <algorithm>
#include <atomic>

#include "capow/tasking/thread_pool.hpp"

namespace capow::trace {

CostCounters& CostCounters::operator+=(const CostCounters& o) noexcept {
  flops += o.flops;
  dram_read_bytes += o.dram_read_bytes;
  dram_write_bytes += o.dram_write_bytes;
  messages += o.messages;
  message_bytes += o.message_bytes;
  tasks_spawned += o.tasks_spawned;
  syncs += o.syncs;
  return *this;
}

void Recorder::reset() noexcept { slots_.fill(Slot{}); }

namespace {
/// Parallel-unit slot claimed by ScopedRecorderSlot for non-worker
/// threads (-1 = none, i.e. the sequential slot 0).
thread_local int t_claimed_unit = -1;
}  // namespace

ScopedRecorderSlot::ScopedRecorderSlot(int unit) noexcept
    : previous_(t_claimed_unit) {
  t_claimed_unit = unit >= 0 ? unit : -1;
}

ScopedRecorderSlot::~ScopedRecorderSlot() { t_claimed_unit = previous_; }

std::size_t Recorder::slot_for_current_thread() noexcept {
  int w = tasking::ThreadPool::worker_index();
  if (w < 0) w = t_claimed_unit;
  const std::size_t slot = static_cast<std::size_t>(w + 1);
  return slot < kMaxSlots ? slot : kMaxSlots - 1;
}

CostCounters Recorder::slot(std::size_t i) const noexcept {
  return slots_[i].c;
}

CostCounters Recorder::total() const noexcept {
  CostCounters t;
  for (const Slot& s : slots_) t += s.c;
  return t;
}

std::vector<CostCounters> Recorder::parallel_slots() const {
  std::vector<CostCounters> out;
  for (std::size_t i = 1; i < kMaxSlots; ++i) {
    if (slots_[i].c != CostCounters{}) out.push_back(slots_[i].c);
  }
  return out;
}

std::uint64_t Recorder::max_parallel_flops() const noexcept {
  std::uint64_t m = 0;
  for (std::size_t i = 1; i < kMaxSlots; ++i) {
    m = std::max(m, slots_[i].c.flops);
  }
  return m;
}

namespace {
// The active recorder is shared by all threads (workers record into their
// own slots), hence a single atomic global rather than a thread_local.
std::atomic<Recorder*> g_recorder{nullptr};
}  // namespace

RecordingScope::RecordingScope(Recorder& r) noexcept
    : previous_(g_recorder.exchange(&r, std::memory_order_acq_rel)) {}

RecordingScope::~RecordingScope() {
  g_recorder.store(previous_, std::memory_order_release);
}

Recorder* RecordingScope::current() noexcept {
  return g_recorder.load(std::memory_order_acquire);
}

CostCounters* active_slot() noexcept {
  Recorder* r = RecordingScope::current();
  return r != nullptr ? &r->slots_[Recorder::slot_for_current_thread()].c
                      : nullptr;
}

void count_flops(std::uint64_t n) noexcept {
  if (CostCounters* c = active_slot()) c->flops += n;
}
void count_dram_read(std::uint64_t bytes) noexcept {
  if (CostCounters* c = active_slot()) c->dram_read_bytes += bytes;
}
void count_dram_write(std::uint64_t bytes) noexcept {
  if (CostCounters* c = active_slot()) c->dram_write_bytes += bytes;
}
void count_message(std::uint64_t bytes) noexcept {
  if (CostCounters* c = active_slot()) {
    c->messages += 1;
    c->message_bytes += bytes;
  }
}
void count_task_spawn(std::uint64_t n) noexcept {
  if (CostCounters* c = active_slot()) c->tasks_spawned += n;
}
void count_sync(std::uint64_t n) noexcept {
  if (CostCounters* c = active_slot()) c->syncs += n;
}

}  // namespace capow::trace
