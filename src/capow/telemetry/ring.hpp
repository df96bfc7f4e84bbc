// Per-thread event ring buffer: the storage primitive under the tracer.
//
// Single-producer (the owning thread) / single-consumer (the collector)
// with no locks on the producer path: the writer stores the record and
// publishes a monotonically increasing head with release ordering; the
// reader walks [head - retained, head) with acquire ordering. When the
// ring wraps, the *oldest* records are overwritten — a tracing session
// keeps the most recent window and reports how much it shed, which is
// the right bias for "what was the system doing when X happened".
//
// Snapshot consistency: reading while the owner is actively pushing can
// observe a torn in-flight slot, so collectors snapshot quiescent
// threads (the tracer collects after joins/waits; tests follow suit).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace capow::telemetry {

/// What one ring slot records.
enum class EventKind : std::uint8_t {
  kSpan,     ///< a closed duration: [t_begin_ns, t_end_ns]
  kInstant,  ///< a point event (t_end_ns == t_begin_ns)
  kCounter,  ///< a sampled numeric value at t_begin_ns
};

/// One fixed-size event record. Names are stable `const char*` (string
/// literals or tracer-interned strings) so pushing never allocates.
struct EventRecord {
  static constexpr int kMaxArgs = 3;

  const char* name = nullptr;
  const char* category = nullptr;
  std::uint64_t t_begin_ns = 0;
  std::uint64_t t_end_ns = 0;
  EventKind kind = EventKind::kSpan;
  const char* arg_name[kMaxArgs] = {nullptr, nullptr, nullptr};
  std::int64_t arg[kMaxArgs] = {0, 0, 0};
  double value = 0.0;  ///< counter payload
  /// Distributed rank of the emitting thread (set via
  /// telemetry::set_thread_rank by dist::World), or -1 outside any rank.
  /// Exporters use it to group events into one lane per rank.
  std::int32_t rank = -1;
};

/// Fixed-capacity overwrite-oldest ring of EventRecords.
class EventRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit EventRing(std::size_t capacity) {
    std::size_t c = 8;
    while (c < capacity) c <<= 1;
    slots_.resize(c);
    mask_ = c - 1;
  }

  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Producer side; owning thread only.
  void push(const EventRecord& r) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slots_[h & mask_] = r;
    head_.store(h + 1, std::memory_order_release);
  }

  /// Total records ever pushed.
  std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Records lost to wraparound (pushed - retained).
  std::uint64_t dropped() const noexcept {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return h > slots_.size() ? h - slots_.size() : 0;
  }

  /// Consumer side: the retained window, oldest first. Safe when the
  /// owning thread is quiescent (see file comment).
  std::vector<EventRecord> snapshot() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t n =
        h < slots_.size() ? h : static_cast<std::uint64_t>(slots_.size());
    std::vector<EventRecord> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = h - n; i < h; ++i) {
      out.push_back(slots_[i & mask_]);
    }
    return out;
  }

 private:
  std::vector<EventRecord> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace capow::telemetry
