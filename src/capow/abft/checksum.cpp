#include "capow/abft/checksum.hpp"

#include <cstdint>
#include <cstring>

#include "capow/linalg/cpu_features.hpp"

namespace capow::abft {
namespace {

// One binary carries a baseline (SSE2), an AVX2 and an AVX-512F compile
// of every O(n^2) sweep, one clone picked per process — the same scheme
// as the gemm microkernels. The bodies are always_inline, so each clone
// compiles them under its own target attribute. Checksums must not
// depend on which CPU computed them, so every clone rounds alike: the
// lane-split reductions below fix their lane count independently of the
// vector width, and this file builds with -ffp-contract=off
// (abft/CMakeLists.txt) because the avx512f target implies FMA and a
// contracted v * rb[t] + rs would round differently.

// A row sum is one long serial reduction; splitting it over kLanes
// independent accumulators lets the adds pipeline and vectorize. Lane l
// accumulates the elements at j = l (mod kLanes); the lanes are folded
// in order 0..kLanes-1 and the last cols % kLanes elements are added
// after them, so every clone reduces in the same order.
constexpr std::size_t kLanes = 8;

/// kLanes accumulators as native Bytes-wide vectors: lane l is element
/// l % kPer of vector l / kPer; a value-initialised block is all +0.0.
/// memcpy loads and stores keep unaligned strided rows well-defined.
template <std::size_t Bytes>
struct LaneBlock {
  typedef double V __attribute__((vector_size(Bytes)));
  typedef std::uint64_t U __attribute__((vector_size(Bytes)));
  static constexpr std::size_t kPer = Bytes / sizeof(double);
  static constexpr std::size_t kVecs = kLanes / kPer;

  V v[kVecs];

  __attribute__((always_inline)) static LaneBlock load(const double* p) {
    LaneBlock b;
    for (std::size_t w = 0; w < kVecs; ++w) {
      std::memcpy(&b.v[w], p + w * kPer, sizeof(V));
    }
    return b;
  }
  __attribute__((always_inline)) void store(double* p) const {
    for (std::size_t w = 0; w < kVecs; ++w) {
      std::memcpy(p + w * kPer, &v[w], sizeof(V));
    }
  }
  /// std::fabs per lane: clears the sign bit, NaN payloads included.
  __attribute__((always_inline)) LaneBlock abs() const {
    LaneBlock b;
    for (std::size_t w = 0; w < kVecs; ++w) {
      b.v[w] = (V)((U)v[w] & (U{} + 0x7fffffffffffffffull));
    }
    return b;
  }
  __attribute__((always_inline)) LaneBlock& operator+=(const LaneBlock& o) {
    for (std::size_t w = 0; w < kVecs; ++w) v[w] += o.v[w];
    return *this;
  }
  __attribute__((always_inline)) LaneBlock operator*(const LaneBlock& o) const {
    LaneBlock b;
    for (std::size_t w = 0; w < kVecs; ++w) b.v[w] = v[w] * o.v[w];
    return b;
  }
  /// 0.0 + lane 0 + lane 1 + ... + lane kLanes-1, left to right.
  __attribute__((always_inline)) double fold() const {
    double sum = 0.0;
    for (std::size_t w = 0; w < kVecs; ++w) {
      for (std::size_t e = 0; e < kPer; ++e) sum += v[w][e];
    }
    return sum;
  }
};

__attribute__((always_inline)) inline void col_sums_body(
    linalg::ConstMatrixView a, double* out, double* mag) {
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  for (std::size_t j = 0; j < cols; ++j) out[j] = mag[j] = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = a.row(i);
    for (std::size_t j = 0; j < cols; ++j) {
      out[j] += row[j];
      mag[j] += std::fabs(row[j]);
    }
  }
}

template <std::size_t Bytes>
__attribute__((always_inline)) inline void row_sums_body(
    linalg::ConstMatrixView a, double* out, double* mag) {
  using L = LaneBlock<Bytes>;
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = a.row(i);
    L s{}, m{};
    std::size_t j = 0;
    for (; j + kLanes <= cols; j += kLanes) {
      const L x = L::load(row + j);
      s += x;
      m += x.abs();
    }
    double sum = s.fold(), mg = m.fold();
    for (; j < cols; ++j) {
      sum += row[j];
      mg += std::fabs(row[j]);
    }
    out[i] = sum;
    mag[i] = mg;
  }
}

template <std::size_t Bytes>
__attribute__((always_inline)) inline void guard_row_refs_body(
    linalg::ConstMatrixView a, const double* rb, const double* rbmag,
    double* ca, double* camag, double* rref, double* rmag) {
  using L = LaneBlock<Bytes>;
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  for (std::size_t t = 0; t < k; ++t) ca[t] = camag[t] = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a.row(i);
    L rs{}, rm{};
    std::size_t t = 0;
    for (; t + kLanes <= k; t += kLanes) {
      const L v = L::load(arow + t);
      const L av = v.abs();
      L sum = L::load(ca + t);
      sum += v;
      sum.store(ca + t);
      L mag = L::load(camag + t);
      mag += av;
      mag.store(camag + t);
      rs += v * L::load(rb + t);
      rm += av * L::load(rbmag + t);
    }
    double ref = rs.fold(), mg = rm.fold();
    for (; t < k; ++t) {
      const double v = arow[t];
      ca[t] += v;
      camag[t] += std::fabs(v);
      ref += v * rb[t];
      mg += std::fabs(v) * rbmag[t];
    }
    rref[i] = ref;
    rmag[i] = mg;
  }
}

__attribute__((always_inline)) inline void guard_col_refs_body(
    linalg::ConstMatrixView b, const double* ca, const double* camag,
    double* cref, double* cmag) {
  const std::size_t k = b.rows();
  const std::size_t n = b.cols();
  for (std::size_t j = 0; j < n; ++j) cref[j] = cmag[j] = 0.0;
  for (std::size_t t = 0; t < k; ++t) {
    const double* brow = b.row(t);
    const double cat = ca[t];
    const double camt = camag[t];
    for (std::size_t j = 0; j < n; ++j) {
      cref[j] += cat * brow[j];
      cmag[j] += camt * std::fabs(brow[j]);
    }
  }
}

template <std::size_t Bytes>
__attribute__((always_inline)) inline void matrix_sums_body(
    linalg::ConstMatrixView c, double* row_out, double* col_out) {
  using L = LaneBlock<Bytes>;
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  for (std::size_t j = 0; j < n; ++j) col_out[j] = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double* crow = c.row(i);
    L s{};
    std::size_t j = 0;
    for (; j + kLanes <= n; j += kLanes) {
      const L v = L::load(crow + j);
      L col = L::load(col_out + j);
      col += v;
      col.store(col_out + j);
      s += v;
    }
    double sum = s.fold();
    for (; j < n; ++j) {
      col_out[j] += crow[j];
      sum += crow[j];
    }
    row_out[i] = sum;
  }
}

// The five sweeps of one clone, compiled under `attr` on Bytes-wide
// vectors.
#define CAPOW_SWEEP_CLONE(isa, attr, bytes)                                 \
  attr void col_sums_##isa(linalg::ConstMatrixView a, double* out,         \
                           double* mag) {                                  \
    col_sums_body(a, out, mag);                                            \
  }                                                                        \
  attr void row_sums_##isa(linalg::ConstMatrixView a, double* out,         \
                           double* mag) {                                  \
    row_sums_body<bytes>(a, out, mag);                                     \
  }                                                                        \
  attr void guard_row_refs_##isa(                                          \
      linalg::ConstMatrixView a, const double* rb, const double* rbmag,    \
      double* ca, double* camag, double* rref, double* rmag) {             \
    guard_row_refs_body<bytes>(a, rb, rbmag, ca, camag, rref, rmag);       \
  }                                                                        \
  attr void guard_col_refs_##isa(linalg::ConstMatrixView b,                \
                                 const double* ca, const double* camag,    \
                                 double* cref, double* cmag) {             \
    guard_col_refs_body(b, ca, camag, cref, cmag);                         \
  }                                                                        \
  attr void matrix_sums_##isa(linalg::ConstMatrixView c, double* row_out,  \
                              double* col_out) {                           \
    matrix_sums_body<bytes>(c, row_out, col_out);                          \
  }                                                                        \
  constexpr detail::SweepClone k_##isa = {                                 \
      #isa, col_sums_##isa, row_sums_##isa, guard_row_refs_##isa,          \
      guard_col_refs_##isa, matrix_sums_##isa};

CAPOW_SWEEP_CLONE(baseline, , 16)
CAPOW_SWEEP_CLONE(avx2, __attribute__((target("avx2"))), 32)
CAPOW_SWEEP_CLONE(avx512f, __attribute__((target("avx512f"))), 64)
#undef CAPOW_SWEEP_CLONE

constexpr detail::SweepClone kClones[] = {k_baseline, k_avx2, k_avx512f};

const detail::SweepClone& active() {
  static const detail::SweepClone& clone = detail::sweep_clones().back();
  return clone;
}

}  // namespace

namespace detail {

std::span<const SweepClone> sweep_clones() {
  static const std::size_t supported = linalg::has_avx512f() ? 3
                                       : linalg::has_avx2()  ? 2
                                                             : 1;
  return {kClones, supported};
}

}  // namespace detail

void col_sums(linalg::ConstMatrixView a, double* out, double* mag) {
  active().col_sums(a, out, mag);
}

void row_sums(linalg::ConstMatrixView a, double* out, double* mag) {
  active().row_sums(a, out, mag);
}

void guard_row_refs(linalg::ConstMatrixView a, const double* rb,
                    const double* rbmag, double* ca, double* camag,
                    double* rref, double* rmag) {
  active().guard_row_refs(a, rb, rbmag, ca, camag, rref, rmag);
}

void guard_col_refs(linalg::ConstMatrixView b, const double* ca,
                    const double* camag, double* cref, double* cmag) {
  active().guard_col_refs(b, ca, camag, cref, cmag);
}

void matrix_sums(linalg::ConstMatrixView c, double* row_out,
                 double* col_out) {
  active().matrix_sums(c, row_out, col_out);
}

double payload_checksum(const double* data, std::size_t count) noexcept {
  NeumaierAcc acc;
  for (std::size_t i = 0; i < count; ++i) acc.add(data[i]);
  return acc.value();
}

}  // namespace capow::abft
