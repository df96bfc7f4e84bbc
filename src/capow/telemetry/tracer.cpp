#include "capow/telemetry/tracer.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

namespace capow::telemetry {

namespace {

// Process-global state, allocated once and intentionally never freed:
// worker threads may race a session teardown by a few instructions, and
// a stray push into a still-live ring is harmless where a push into a
// freed one would not be. Memory is bounded by thread count and the
// interned-name set.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<detail::ThreadBuffer>> buffers;
  std::deque<std::string> interned_storage;
  std::map<std::string, const char*, std::less<>> interned_index;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

thread_local detail::ThreadBuffer* t_buffer = nullptr;

thread_local std::int32_t t_rank = -1;

}  // namespace

void set_thread_rank(std::int32_t rank) noexcept { t_rank = rank; }

std::int32_t thread_rank() noexcept { return t_rank; }

namespace detail {

ThreadBuffer* this_thread_buffer() {
  if (t_buffer == nullptr) {
    Registry& reg = registry();
    std::lock_guard lock(reg.mutex);
    reg.buffers.push_back(std::make_unique<ThreadBuffer>(reg.buffers.size()));
    t_buffer = reg.buffers.back().get();
  }
  return t_buffer;
}

}  // namespace detail

const char* intern(std::string_view s) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  const auto it = reg.interned_index.find(s);
  if (it != reg.interned_index.end()) return it->second;
  reg.interned_storage.emplace_back(s);
  const char* stable = reg.interned_storage.back().c_str();
  reg.interned_index.emplace(std::string(s), stable);
  return stable;
}

Tracer::Tracer() : start_ns_(now_ns()) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  std::uint64_t drops = 0;
  for (const auto& b : reg.buffers) drops += b->ring.dropped();
  dropped_baseline_ = drops;
}

Tracer::~Tracer() {
  // Defensive: if someone destroys an installed tracer without ending
  // its TracingScope first, uninstall so call sites stop referencing it.
  Tracer* self = this;
  detail::active_tracer.compare_exchange_strong(self, nullptr,
                                                std::memory_order_acq_rel);
}

std::vector<TraceEvent> Tracer::collect() const {
  std::vector<TraceEvent> out;
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  for (const auto& b : reg.buffers) {
    for (const EventRecord& r : b->ring.snapshot()) {
      if (r.name == nullptr || r.t_begin_ns < start_ns_) continue;
      out.push_back(TraceEvent{b->tid, r});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.rec.t_begin_ns != b.rec.t_begin_ns) {
                return a.rec.t_begin_ns < b.rec.t_begin_ns;
              }
              return a.tid < b.tid;
            });
  return out;
}

std::uint64_t Tracer::dropped() const {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  std::uint64_t drops = 0;
  for (const auto& b : reg.buffers) drops += b->ring.dropped();
  return drops > dropped_baseline_ ? drops - dropped_baseline_ : 0;
}

TracingScope::TracingScope(Tracer& t) noexcept
    : previous_(detail::active_tracer.exchange(&t,
                                               std::memory_order_acq_rel)) {}

TracingScope::~TracingScope() {
  detail::active_tracer.store(previous_, std::memory_order_release);
}

std::uint64_t total_dropped_events() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  std::uint64_t drops = 0;
  for (const auto& b : reg.buffers) drops += b->ring.dropped();
  return drops;
}

void instant(const char* name, const char* category) noexcept {
  if (name == nullptr || Tracer::active() == nullptr) return;
  EventRecord r;
  r.name = name;
  r.category = category;
  r.kind = EventKind::kInstant;
  r.rank = t_rank;
  r.t_begin_ns = r.t_end_ns = now_ns();
  detail::this_thread_buffer()->ring.push(r);
}

void counter(const char* name, double value) noexcept {
  if (name == nullptr || Tracer::active() == nullptr) return;
  EventRecord r;
  r.name = name;
  r.category = "counter";
  r.kind = EventKind::kCounter;
  r.rank = t_rank;
  r.t_begin_ns = r.t_end_ns = now_ns();
  r.value = value;
  detail::this_thread_buffer()->ring.push(r);
}

}  // namespace capow::telemetry
