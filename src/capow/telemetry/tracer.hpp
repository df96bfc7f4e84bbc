// The span tracer: who did what, when, on which thread.
//
// The trace::Recorder answers "how much" (flops, bytes) per thread;
// this module answers "when" and "in which named section" — it
// timestamps the task runtime, the three matmul kernels, and the
// mini-MPI so the paper's power timelines (Figs 4-6) can be read
// against what the algorithm was doing at each instant. Design constraints, in order:
//
//   1. near-zero cost when no tracer is installed (one relaxed atomic
//      load per call site),
//   2. no locks or allocation on the hot path when tracing (per-thread
//      SPSC rings, string-literal / interned names, two clock reads per
//      span),
//   3. one vocabulary: call sites construct a SpanScope or call
//      instant()/counter() directly; a run is instrumented exactly when
//      a Tracer is installed.
//
// Thread buffers live in a process-global registry that is never torn
// down: a worker racing a Tracer uninstall can at worst write one stray
// record into a still-live ring, never touch freed memory. A Tracer is
// a *session* over that registry — it filters collected events to its
// own time window.
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "capow/telemetry/clock.hpp"
#include "capow/telemetry/ring.hpp"

namespace capow::telemetry {

/// Records each thread's ring keeps before overwriting the oldest.
inline constexpr std::size_t kRingCapacity = 8192;

class Tracer;

namespace detail {
/// The installed tracer; TracingScope writes it, Tracer::active() reads
/// it.
inline std::atomic<Tracer*> active_tracer{nullptr};

/// One thread's ring plus its stable small id (0 = first registered,
/// usually the main thread). Owned by the process-global registry.
struct ThreadBuffer {
  EventRing ring;
  std::uint64_t tid = 0;
  explicit ThreadBuffer(std::uint64_t id) : ring(kRingCapacity), tid(id) {}
};

/// The calling thread's buffer, registering it on first use.
ThreadBuffer* this_thread_buffer();
}  // namespace detail

/// A collected event: an EventRecord plus the thread it came from.
struct TraceEvent {
  std::uint64_t tid = 0;
  EventRecord rec;
};

/// Copies `s` into process-lifetime storage and returns a stable pointer
/// (same pointer for equal strings). Use for dynamic span names; string
/// literals can be passed to SpanScope directly.
const char* intern(std::string_view s);

/// Tags the calling thread with a distributed rank id; every event the
/// thread subsequently records carries it (EventRecord::rank), which is
/// how the Chrome exporter builds one lane per rank. dist::World sets
/// this on each rank thread and restores -1 ("no rank") at rank exit.
void set_thread_rank(std::int32_t rank) noexcept;

/// The calling thread's rank tag (-1 when unset).
std::int32_t thread_rank() noexcept;

/// One tracing session. Construct, install with TracingScope, run the
/// instrumented code, then collect(). Sessions are cheap; the expensive
/// state (rings) is process-global and reused.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The installed tracer, or nullptr. Call sites gate on this; it is
  /// only ever compared with nullptr, so a relaxed load suffices.
  static Tracer* active() noexcept {
    return detail::active_tracer.load(std::memory_order_relaxed);
  }

  /// Session start timestamp; collect() keeps events at or after it.
  std::uint64_t start_ns() const noexcept { return start_ns_; }

  /// Merges every thread's retained events that fall inside this
  /// session, sorted by begin time (ties by tid). Call after the
  /// instrumented work has quiesced (joins/waits completed).
  std::vector<TraceEvent> collect() const;

  /// Ring-wraparound shed across all thread buffers since this session
  /// started (advisory: coarse per-buffer accounting).
  std::uint64_t dropped() const;

 private:
  std::uint64_t start_ns_ = 0;
  std::uint64_t dropped_baseline_ = 0;
};

/// RAII install/uninstall of the process-wide active tracer (mirrors
/// trace::RecordingScope). Nesting restores the previous tracer.
class TracingScope {
 public:
  explicit TracingScope(Tracer& t) noexcept;
  ~TracingScope();
  TracingScope(const TracingScope&) = delete;
  TracingScope& operator=(const TracingScope&) = delete;

 private:
  Tracer* previous_;
};

/// RAII span: captures t_begin at construction and pushes one closed
/// kSpan record at destruction. When no tracer is installed or `name`
/// is nullptr the span is inactive: it builds no record, and its whole
/// cost is the one relaxed load in Tracer::active().
class SpanScope {
 public:
  SpanScope(const char* name, const char* category) noexcept {
    open(name, category);
  }
  SpanScope(const char* name, const char* category, const char* k0,
            std::int64_t v0) noexcept {
    open(name, category);
    set_arg(0, k0, v0);
  }
  SpanScope(const char* name, const char* category, const char* k0,
            std::int64_t v0, const char* k1, std::int64_t v1) noexcept {
    open(name, category);
    set_arg(0, k0, v0);
    set_arg(1, k1, v1);
  }
  SpanScope(const char* name, const char* category, const char* k0,
            std::int64_t v0, const char* k1, std::int64_t v1,
            const char* k2, std::int64_t v2) noexcept {
    open(name, category);
    set_arg(0, k0, v0);
    set_arg(1, k1, v1);
    set_arg(2, k2, v2);
  }
  ~SpanScope() {
    if (buf_ != nullptr) {
      rec_.t_end_ns = now_ns();
      buf_->ring.push(rec_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool active() const noexcept { return buf_ != nullptr; }

  /// Fills arg slot `i` after construction — for values only known once
  /// the spanned operation completes (e.g. the sequence number of the
  /// message a recv matched). No-op on inactive spans or bad slots.
  void set_arg(int i, const char* arg_name, std::int64_t value) noexcept {
    if (buf_ == nullptr || i < 0 || i >= EventRecord::kMaxArgs) return;
    rec_.arg_name[i] = arg_name;
    rec_.arg[i] = value;
  }

 private:
  void open(const char* name, const char* category) noexcept {
    if (name == nullptr || Tracer::active() == nullptr) return;
    buf_ = detail::this_thread_buffer();
    ::new (&rec_) EventRecord();
    rec_.name = name;
    rec_.category = category;
    rec_.kind = EventKind::kSpan;
    rec_.rank = thread_rank();
    rec_.t_begin_ns = now_ns();
  }

  // Constructed by open(): live exactly while buf_ is set, so an
  // inactive span never writes it.
  union {
    EventRecord rec_;
  };
  detail::ThreadBuffer* buf_ = nullptr;
};

/// Process-lifetime count of ring records lost to wraparound, summed
/// across every registered thread buffer (monotonic; independent of any
/// session's baseline). Surfaced as capow_trace_dropped_events_total in
/// the Prometheus export and as a capow-report warning banner, so
/// truncated traces are never silently presented as complete.
std::uint64_t total_dropped_events();

/// Point event on the calling thread (no-op without an active tracer).
void instant(const char* name, const char* category) noexcept;

/// Sampled numeric value (rendered as a counter track by the Chrome
/// exporter). No-op without an active tracer.
void counter(const char* name, double value) noexcept;

}  // namespace capow::telemetry
