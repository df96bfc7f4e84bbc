#include "capow/blas/workspace.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>

namespace capow::blas {

namespace {

// Buffers are handed out in 4 KiB size classes so edge-block panels
// (slightly smaller than the interior ones) reuse the same pool entry.
std::size_t round_up_doubles(std::size_t count) {
  const std::size_t per_class = kArenaClassBytes / sizeof(double);
  const std::size_t classes = (count + per_class - 1) / per_class;
  return (classes == 0 ? 1 : classes) * per_class;
}

}  // namespace

WorkspaceCheckout& WorkspaceCheckout::operator=(
    WorkspaceCheckout&& other) noexcept {
  if (this != &other) {
    release();
    arena_ = std::exchange(other.arena_, nullptr);
    data_ = std::exchange(other.data_, nullptr);
    capacity_ = std::exchange(other.capacity_, 0);
  }
  return *this;
}

void WorkspaceCheckout::release() noexcept {
  if (arena_ != nullptr && data_ != nullptr) {
    arena_->release_buffer(data_, capacity_);
  }
  arena_ = nullptr;
  data_ = nullptr;
  capacity_ = 0;
}

WorkspaceArena::~WorkspaceArena() { trim(); }

WorkspaceCheckout WorkspaceArena::acquire(std::size_t count) {
  const std::size_t want = round_up_doubles(count);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.acquires;

  // Best fit: smallest pooled buffer that still satisfies the request.
  std::size_t best = free_.size();
  for (std::size_t i = 0; i < free_.size(); ++i) {
    if (free_[i].capacity >= want &&
        (best == free_.size() || free_[i].capacity < free_[best].capacity)) {
      best = i;
    }
  }
  double* data = nullptr;
  std::size_t capacity = 0;
  if (best != free_.size()) {
    ++stats_.hits;
    data = free_[best].data;
    capacity = free_[best].capacity;
    stats_.pooled_bytes -= capacity * sizeof(double);
    free_[best] = free_.back();
    free_.pop_back();
  } else {
    // A miss while nothing is leased frees every idle buffer (best fit
    // missed, so each is too small for it): it opens a computation
    // larger than any the pool has served, whose smaller leases reuse
    // the larger buffers it pools. So the pool holds the largest working
    // set, not one idle set per shape. A miss while a lease is out (a
    // sibling task on a pool) frees nothing: between evictions the pool
    // only grows, and each eviction raises its largest buffer, so a
    // repeated workload stops missing in any lease order.
    ++stats_.misses;
    if (stats_.outstanding_bytes == 0) {
      for (const Pooled& p : free_) std::free(p.data);
      free_.clear();
      stats_.pooled_bytes = 0;
    }
    capacity = want;
    data = static_cast<double*>(std::aligned_alloc(
        linalg::kMatrixAlignment, capacity * sizeof(double)));
    if (data == nullptr) throw std::bad_alloc();
    stats_.allocated_bytes += capacity * sizeof(double);
  }
  stats_.outstanding_bytes += capacity * sizeof(double);
  stats_.peak_outstanding_bytes =
      std::max(stats_.peak_outstanding_bytes, stats_.outstanding_bytes);
  return WorkspaceCheckout(this, data, capacity);
}

void WorkspaceArena::release_buffer(double* data,
                                    std::size_t capacity) noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.outstanding_bytes -= capacity * sizeof(double);
  stats_.pooled_bytes += capacity * sizeof(double);
  try {
    free_.push_back({data, capacity});
  } catch (...) {
    // Could not pool it; drop the buffer rather than leak or throw.
    stats_.pooled_bytes -= capacity * sizeof(double);
    std::free(data);
  }
}

ArenaStats WorkspaceArena::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WorkspaceArena::trim() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Pooled& p : free_) std::free(p.data);
  free_.clear();
  stats_.pooled_bytes = 0;
}

void WorkspaceArena::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t pooled = stats_.pooled_bytes;
  const std::uint64_t allocated = stats_.allocated_bytes;
  const std::uint64_t outstanding = stats_.outstanding_bytes;
  stats_ = ArenaStats{};
  stats_.pooled_bytes = pooled;
  stats_.allocated_bytes = allocated;
  stats_.outstanding_bytes = outstanding;
  stats_.peak_outstanding_bytes = outstanding;
}

WorkspaceArena& WorkspaceArena::process_arena() {
  static WorkspaceArena* arena = new WorkspaceArena();
  return *arena;
}

}  // namespace capow::blas
