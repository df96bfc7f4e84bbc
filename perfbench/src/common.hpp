// Shared helpers for the capow end-to-end benchmark: clocks, the
// benchmark-owned random generator and sequence hash, order statistics,
// host health probes and the Freivalds product check.
//
// Everything here is deliberately independent of capow's own helpers
// (linalg::fill_random, serve::generate_trace, ...): the benchmark owns
// its inputs, so a change to the program cannot change the workload.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "capow/linalg/matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64: small, fast and fully specified, so a seed names the same
/// inputs on every compiler and library version.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, bound).
  std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(unit() * static_cast<double>(bound));
  }

 private:
  std::uint64_t state_;
};

/// Mixes several words into one seed (for per-operation seeds).
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

/// FNV-1a over 64-bit words: the printed fingerprint of a generated
/// operation/arrival sequence.
class SequenceHash {
 public:
  void add(std::uint64_t v);
  void add(double v);
  std::uint64_t value() const noexcept { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Fills `m` with uniform values in [-1, 1) from the benchmark's own
/// generator.
void fill_operand(capow::linalg::MatrixView m, std::uint64_t seed);

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 for
/// an empty set.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Mean of the central fifth of the samples (ranks p40–p60); 0 for an
/// empty set. An estimate of the median that moves smoothly when two
/// modes of a bimodal set trade places at the middle, where the middle
/// sample jumps from one mode to the other.
double central_mean(std::vector<double> v);

/// The highest percentile that still has `beyond` samples above it: the
/// (beyond+1)-th largest sample, at percentile 100 * (N - beyond) / N.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> v, std::size_t beyond = 10);

/// Aggregate CPU tick counters from /proc/stat (zeros when unreadable).
struct CpuTicks {
  std::uint64_t user = 0;
  std::uint64_t system = 0;
  std::uint64_t steal = 0;
};
CpuTicks read_cpu_ticks();
/// steal / (user + system + steal) between two readings; 0 when no ticks.
double steal_frac(const CpuTicks& before, const CpuTicks& after);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Seeded Freivalds check: compares C·x against A·(B·x) for a random
/// x with |x_i| in [0.5, 1). The tolerance scales with
/// n·‖A‖∞·‖B‖∞·‖x‖∞, far above rounding (including Strassen's growth)
/// and far below any single corrupted element of magnitude >= 1e-3.
struct FreivaldsResult {
  bool ok = false;
  double residual = 0.0;
  double tolerance = 0.0;
};
FreivaldsResult freivalds(capow::linalg::ConstMatrixView a,
                          capow::linalg::ConstMatrixView b,
                          capow::linalg::ConstMatrixView c,
                          std::uint64_t seed);

/// Largest |x - y| over two equally shaped matrices.
double largest_abs_diff(capow::linalg::ConstMatrixView x,
                    capow::linalg::ConstMatrixView y);

}  // namespace perfbench
