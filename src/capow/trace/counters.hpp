// capow::trace — lightweight per-thread cost instrumentation.
//
// The paper measures power while the algorithms run; its claims rest on
// *why* the power differs: blocked DGEMM is compute-bound, the Strassen
// family streams far more O(n^2) addition traffic. To make that causal
// chain testable we instrument every algorithm with cost counters —
// flops executed, bytes moved to/from DRAM (as modeled by each kernel's
// traffic accounting), tasks spawned, synchronization points — recorded
// per worker thread so the EP model's max-over-parallel-units terms
// (Eq 2) can be evaluated exactly.
//
// Counters are plain (non-atomic) per-slot values padded to a cache line:
// each slot is only written by its owning thread, and merging happens
// after the parallel region completes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace capow::trace {

/// Aggregate cost counters for one execution unit (or a merged total).
struct CostCounters {
  std::uint64_t flops = 0;          ///< floating point operations executed
  std::uint64_t dram_read_bytes = 0;   ///< modeled DRAM read traffic
  std::uint64_t dram_write_bytes = 0;  ///< modeled DRAM write traffic
  std::uint64_t messages = 0;       ///< messages sent (distributed runs)
  std::uint64_t message_bytes = 0;  ///< message payload bytes
  std::uint64_t tasks_spawned = 0;  ///< tasks created
  std::uint64_t syncs = 0;          ///< barriers / waits encountered

  std::uint64_t dram_bytes() const noexcept {
    return dram_read_bytes + dram_write_bytes;
  }

  CostCounters& operator+=(const CostCounters& o) noexcept;
  friend CostCounters operator+(CostCounters a, const CostCounters& b) {
    a += b;
    return a;
  }
  bool operator==(const CostCounters&) const = default;
};

/// Records costs for up to kMaxSlots concurrent execution units.
///
/// Slot assignment: pool worker i writes slot i+1; any non-worker thread
/// (the main/sequential thread) writes slot 0. This matches the EP
/// model's sequential-vs-parallel decomposition: slot 0 holds the
/// sequential component, slots 1..N the parallel units. Named sections
/// of a run are telemetry spans; the recorder only counts.
class Recorder {
 public:
  static constexpr std::size_t kMaxSlots = 65;

  Recorder() = default;

  /// Clears every slot.
  void reset() noexcept;

  /// Slot written by the calling thread (worker_index()+1, or 0).
  static std::size_t slot_for_current_thread() noexcept;

  /// Counters of one slot (0 = sequential/main thread).
  CostCounters slot(std::size_t i) const noexcept;

  /// Sum over all slots.
  CostCounters total() const noexcept;

  /// Counters of the parallel slots (1..) that are non-empty.
  std::vector<CostCounters> parallel_slots() const;

  /// Max flops over parallel slots — the critical-path work term.
  std::uint64_t max_parallel_flops() const noexcept;

 private:
  struct alignas(64) Slot {
    CostCounters c;
  };

  /// The calling thread's slot in the installed recorder (nullptr when
  /// none is): the one write path, used by the count_* functions.
  friend CostCounters* active_slot() noexcept;

  std::array<Slot, kMaxSlots> slots_{};
};

/// RAII parallel-unit slot claim for threads that are not pool workers.
/// Without it every such thread collapses into slot 0 (the sequential
/// slot), and concurrent non-worker threads — e.g. dist::World rank
/// threads — would race on its plain counters. Claiming `unit` routes
/// the calling thread's counts to parallel slot 1 + unit (clamped to
/// the last slot) for the scope lifetime, which is also the honest EP
/// decomposition: a rank thread is a parallel unit, not the sequential
/// component. Pool workers ignore the claim (their index wins).
class ScopedRecorderSlot {
 public:
  explicit ScopedRecorderSlot(int unit) noexcept;
  ~ScopedRecorderSlot();
  ScopedRecorderSlot(const ScopedRecorderSlot&) = delete;
  ScopedRecorderSlot& operator=(const ScopedRecorderSlot&) = delete;

 private:
  int previous_;
};

/// Installs `r` as the calling thread's *and* subsequently-created
/// recordings' target for the scope lifetime. The active recorder is a
/// process-global (algorithms running under different recorders
/// concurrently should use distinct Recorder objects passed explicitly;
/// the global scope is a convenience for whole-experiment recording).
class RecordingScope {
 public:
  explicit RecordingScope(Recorder& r) noexcept;
  ~RecordingScope();
  RecordingScope(const RecordingScope&) = delete;
  RecordingScope& operator=(const RecordingScope&) = delete;

  /// Currently-installed recorder, or nullptr.
  static Recorder* current() noexcept;

 private:
  Recorder* previous_;
};

// Free-function recording against the current RecordingScope (no-ops when
// none is installed): the only way to write a Recorder.
void count_flops(std::uint64_t n) noexcept;
void count_dram_read(std::uint64_t bytes) noexcept;
void count_dram_write(std::uint64_t bytes) noexcept;
void count_message(std::uint64_t bytes) noexcept;
void count_task_spawn(std::uint64_t n = 1) noexcept;
void count_sync(std::uint64_t n = 1) noexcept;

}  // namespace capow::trace
