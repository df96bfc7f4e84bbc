// Pooled packing/temporary workspaces for the matmul hot paths.
//
// Blocked GEMM packs a kc x nc B panel plus an mc x kc A block per
// iteration; the Strassen and CAPS recursions additionally need
// quadrant-sized temporaries at every recursion level. The seed
// allocated all of these fresh on each call, which (a) costs
// page-faulting mallocs on the hot path and (b) forfeits the LLC/L2
// residency a reused buffer would keep across recursion levels and
// harness runs.
//
// WorkspaceArena is a mutex-guarded best-fit pool of 64-byte-aligned
// buffers. acquire() hands out a RAII Checkout that returns the buffer
// on destruction; repeat acquisitions of hot sizes are free-list hits.
// Sizes are rounded up to 4 KiB classes so slightly-different panel
// shapes (edge blocks) still share buffers. Idle buffers are freed only
// by trim() and by a miss while nothing is leased: such a miss starts a
// computation larger than every buffer held, whose smaller leases reuse
// the larger buffers it pools, so the pool holds the largest working set
// seen rather than one idle set per shape. Arena traffic is *physical*
// scratch — it deliberately moves none of the capow::trace logical
// counters, which continue to model algorithmic traffic exactly.
//
// ArenaStats exposes hit/miss/outstanding counters for telemetry and
// for the "zero hot-path allocations after warm-up" assertions.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "capow/linalg/matrix.hpp"

namespace capow::blas {

class WorkspaceArena;

/// Arena leases are whole multiples of this size class.
inline constexpr std::size_t kArenaClassBytes = 4096;

/// RAII lease of one arena buffer; movable, returns on destruction.
class WorkspaceCheckout {
 public:
  WorkspaceCheckout() = default;
  WorkspaceCheckout(WorkspaceCheckout&& other) noexcept
      : arena_(std::exchange(other.arena_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  WorkspaceCheckout& operator=(WorkspaceCheckout&& other) noexcept;
  WorkspaceCheckout(const WorkspaceCheckout&) = delete;
  WorkspaceCheckout& operator=(const WorkspaceCheckout&) = delete;
  ~WorkspaceCheckout() { release(); }

  double* data() const noexcept { return data_; }
  /// Usable capacity in doubles (>= the requested count).
  std::size_t capacity() const noexcept { return capacity_; }
  bool valid() const noexcept { return data_ != nullptr; }

  /// Returns the buffer to the arena early.
  void release() noexcept;

 private:
  friend class WorkspaceArena;
  WorkspaceCheckout(WorkspaceArena* arena, double* data,
                    std::size_t capacity) noexcept
      : arena_(arena), data_(data), capacity_(capacity) {}

  WorkspaceArena* arena_ = nullptr;
  double* data_ = nullptr;
  std::size_t capacity_ = 0;
};

/// Arena usage counters (monotonic except outstanding_bytes).
struct ArenaStats {
  std::uint64_t acquires = 0;  ///< total acquire() calls
  std::uint64_t hits = 0;      ///< served from the free list
  std::uint64_t misses = 0;    ///< required a fresh allocation
  std::uint64_t allocated_bytes = 0;  ///< lifetime bytes malloc'd
  std::uint64_t pooled_bytes = 0;     ///< bytes idle in the free list
  std::uint64_t outstanding_bytes = 0;       ///< bytes checked out now
  std::uint64_t peak_outstanding_bytes = 0;  ///< high-water outstanding

  /// Fraction of acquires served without allocating; 1.0 when idle.
  double hit_rate() const noexcept {
    return acquires == 0 ? 1.0
                         : static_cast<double>(hits) /
                               static_cast<double>(acquires);
  }
};

/// Mutex-guarded best-fit pool of aligned double buffers.
class WorkspaceArena {
 public:
  WorkspaceArena() = default;
  WorkspaceArena(const WorkspaceArena&) = delete;
  WorkspaceArena& operator=(const WorkspaceArena&) = delete;
  ~WorkspaceArena();

  /// Leases a buffer of at least `count` doubles. Thread-safe.
  WorkspaceCheckout acquire(std::size_t count);

  /// Current counters (snapshot under the lock).
  ArenaStats stats() const;

  /// Frees every idle pooled buffer (checked-out leases are unaffected).
  void trim();

  /// Zeroes the hit/miss counters; pooled buffers stay pooled. Used by
  /// benches to measure the warm steady state separately from warm-up.
  void reset_stats();

  /// The process-wide default arena threaded through capow::matmul when
  /// the caller does not supply one. Never destroyed (intentionally
  /// leaked) so checkouts on detached threads stay valid at exit.
  static WorkspaceArena& process_arena();

 private:
  friend class WorkspaceCheckout;
  void release_buffer(double* data, std::size_t capacity) noexcept;

  struct Pooled {
    double* data;
    std::size_t capacity;  ///< doubles
  };

  mutable std::mutex mu_;
  std::vector<Pooled> free_;
  ArenaStats stats_;
};

/// The calling thread's ambient arena: the pool a null-`arena` caller
/// leases from. Defaults to WorkspaceArena::process_arena(); a device
/// dispatch layer above blas installs its own pool via ArenaScope so
/// every nested lease lands in the dispatched device's memory without
/// threading a pointer through each recursion level.
WorkspaceArena& active_arena() noexcept;

/// RAII override of the calling thread's ambient arena.
class ArenaScope {
 public:
  explicit ArenaScope(WorkspaceArena& arena) noexcept;
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  WorkspaceArena* prev_;
};

/// Matrix-shaped lease: rows x cols over arena storage. Like
/// Matrix(rows, cols), contents are indeterminate (here: whatever the
/// previous lease left) — write before reading.
class ArenaMatrix {
 public:
  ArenaMatrix(WorkspaceArena& arena, std::size_t rows, std::size_t cols)
      : lease_(arena.acquire(rows * cols)), rows_(rows), cols_(cols) {}
  ArenaMatrix(ArenaMatrix&&) noexcept = default;
  ArenaMatrix& operator=(ArenaMatrix&&) noexcept = default;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  linalg::MatrixView view() noexcept {
    return {lease_.data(), rows_, cols_, cols_};
  }
  linalg::ConstMatrixView view() const noexcept {
    return {lease_.data(), rows_, cols_, cols_};
  }
  linalg::ConstMatrixView cview() const noexcept { return view(); }

  double& operator()(std::size_t i, std::size_t j) noexcept {
    return lease_.data()[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const noexcept {
    return lease_.data()[i * cols_ + j];
  }

 private:
  WorkspaceCheckout lease_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// N equally-shaped ArenaMatrix leases without any heap container
/// (std::vector would itself allocate on the hot path).
template <std::size_t N>
std::array<ArenaMatrix, N> make_arena_matrices(WorkspaceArena& arena,
                                               std::size_t rows,
                                               std::size_t cols) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<ArenaMatrix, N>{
        ((void)I, ArenaMatrix(arena, rows, cols))...};
  }(std::make_index_sequence<N>{});
}

}  // namespace capow::blas
