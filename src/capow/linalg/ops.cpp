#include "capow/linalg/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "capow/linalg/cpu_features.hpp"

namespace capow::linalg {

namespace {

void check_same_shape(ConstMatrixView a, ConstMatrixView b,
                      const char* what) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(
        std::string(what) + ": shape mismatch " + std::to_string(a.rows()) +
        "x" + std::to_string(a.cols()) + " vs " + std::to_string(b.rows()) +
        "x" + std::to_string(b.cols()));
  }
}

// The four quadrant add/sub passes of the Strassen family are compiled
// three times — baseline (SSE2), AVX2 and AVX-512F — and dispatch to
// the widest clone the host runs, picked once per process. Each element
// is one add or subtract in every clone, so all three round alike.

/// dst = a - b when kSub, else dst = a + b.
template <bool kSub>
__attribute__((always_inline)) inline void combine_body(ConstMatrixView a,
                                                        ConstMatrixView b,
                                                        MatrixView dst) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* pa = a.row(i);
    const double* pb = b.row(i);
    double* pd = dst.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      pd[j] = kSub ? pa[j] - pb[j] : pa[j] + pb[j];
    }
  }
}

/// dst -= src when kSub, else dst += src.
template <bool kSub>
__attribute__((always_inline)) inline void update_body(MatrixView dst,
                                                       ConstMatrixView src) {
  for (std::size_t i = 0; i < src.rows(); ++i) {
    const double* ps = src.row(i);
    double* pd = dst.row(i);
    for (std::size_t j = 0; j < src.cols(); ++j) {
      pd[j] = kSub ? pd[j] - ps[j] : pd[j] + ps[j];
    }
  }
}

template <bool kSub>
void combine_generic(ConstMatrixView a, ConstMatrixView b, MatrixView dst) {
  combine_body<kSub>(a, b, dst);
}
template <bool kSub>
__attribute__((target("avx2"))) void combine_avx2(ConstMatrixView a,
                                                  ConstMatrixView b,
                                                  MatrixView dst) {
  combine_body<kSub>(a, b, dst);
}
template <bool kSub>
__attribute__((target("avx512f"))) void combine_avx512(ConstMatrixView a,
                                                       ConstMatrixView b,
                                                       MatrixView dst) {
  combine_body<kSub>(a, b, dst);
}

template <bool kSub>
void update_generic(MatrixView dst, ConstMatrixView src) {
  update_body<kSub>(dst, src);
}
template <bool kSub>
__attribute__((target("avx2"))) void update_avx2(MatrixView dst,
                                                 ConstMatrixView src) {
  update_body<kSub>(dst, src);
}
template <bool kSub>
__attribute__((target("avx512f"))) void update_avx512(MatrixView dst,
                                                      ConstMatrixView src) {
  update_body<kSub>(dst, src);
}

template <bool kSub>
void combine(ConstMatrixView a, ConstMatrixView b, MatrixView dst) {
  using Clone = void (*)(ConstMatrixView, ConstMatrixView, MatrixView);
  static const Clone clone = has_avx512f() ? combine_avx512<kSub>
                             : has_avx2()  ? combine_avx2<kSub>
                                           : combine_generic<kSub>;
  clone(a, b, dst);
}

template <bool kSub>
void update(MatrixView dst, ConstMatrixView src) {
  using Clone = void (*)(MatrixView, ConstMatrixView);
  static const Clone clone = has_avx512f() ? update_avx512<kSub>
                             : has_avx2()  ? update_avx2<kSub>
                                           : update_generic<kSub>;
  clone(dst, src);
}

}  // namespace

void copy(ConstMatrixView src, MatrixView dst) {
  check_same_shape(src, dst, "copy");
  if (src.packed() && dst.packed()) {
    std::memcpy(dst.data(), src.data(), src.size() * sizeof(double));
    return;
  }
  for (std::size_t i = 0; i < src.rows(); ++i) {
    std::memcpy(dst.row(i), src.row(i), src.cols() * sizeof(double));
  }
}

void add(ConstMatrixView a, ConstMatrixView b, MatrixView dst) {
  check_same_shape(a, b, "add");
  check_same_shape(a, dst, "add");
  combine<false>(a, b, dst);
}

void sub(ConstMatrixView a, ConstMatrixView b, MatrixView dst) {
  check_same_shape(a, b, "sub");
  check_same_shape(a, dst, "sub");
  combine<true>(a, b, dst);
}

void add_inplace(MatrixView dst, ConstMatrixView src) {
  check_same_shape(src, dst, "add_inplace");
  update<false>(dst, src);
}

void sub_inplace(MatrixView dst, ConstMatrixView src) {
  check_same_shape(src, dst, "sub_inplace");
  update<true>(dst, src);
}

void scale(MatrixView dst, double alpha) {
  for (std::size_t i = 0; i < dst.rows(); ++i) {
    double* pd = dst.row(i);
    for (std::size_t j = 0; j < dst.cols(); ++j) pd[j] *= alpha;
  }
}

void axpy(double alpha, ConstMatrixView src, MatrixView dst) {
  check_same_shape(src, dst, "axpy");
  for (std::size_t i = 0; i < src.rows(); ++i) {
    const double* ps = src.row(i);
    double* pd = dst.row(i);
    for (std::size_t j = 0; j < src.cols(); ++j) pd[j] += alpha * ps[j];
  }
}

void transpose(ConstMatrixView src, MatrixView dst) {
  if (src.rows() != dst.cols() || src.cols() != dst.rows()) {
    throw std::invalid_argument("transpose: dst must be src's shape swapped");
  }
  // Blocked to keep both access streams cache-resident.
  constexpr std::size_t kTile = 32;
  for (std::size_t i0 = 0; i0 < src.rows(); i0 += kTile) {
    const std::size_t imax = std::min(i0 + kTile, src.rows());
    for (std::size_t j0 = 0; j0 < src.cols(); j0 += kTile) {
      const std::size_t jmax = std::min(j0 + kTile, src.cols());
      for (std::size_t i = i0; i < imax; ++i) {
        for (std::size_t j = j0; j < jmax; ++j) {
          dst(j, i) = src(i, j);
        }
      }
    }
  }
}

double frobenius_norm(ConstMatrixView a) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* p = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) sum += p[j] * p[j];
  }
  return std::sqrt(sum);
}

double max_abs(ConstMatrixView a) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* p = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      m = std::max(m, std::fabs(p[j]));
    }
  }
  return m;
}

double max_abs_diff(ConstMatrixView a, ConstMatrixView b) {
  check_same_shape(a, b, "max_abs_diff");
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* pa = a.row(i);
    const double* pb = b.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      m = std::max(m, std::fabs(pa[j] - pb[j]));
    }
  }
  return m;
}

bool allclose(ConstMatrixView a, ConstMatrixView b, double rtol,
              double atol) {
  check_same_shape(a, b, "allclose");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* pa = a.row(i);
    const double* pb = b.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (std::fabs(pa[j] - pb[j]) > atol + rtol * std::fabs(pb[j])) {
        return false;
      }
    }
  }
  return true;
}

double relative_error(ConstMatrixView a, ConstMatrixView b) {
  check_same_shape(a, b, "relative_error");
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* pa = a.row(i);
    const double* pb = b.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double d = pa[j] - pb[j];
      num += d * d;
      den += pb[j] * pb[j];
    }
  }
  const double tiny = 1e-300;
  return std::sqrt(num) / std::max(std::sqrt(den), tiny);
}

std::size_t round_up(std::size_t n, std::size_t multiple) {
  if (multiple == 0) throw std::invalid_argument("round_up: multiple == 0");
  const std::size_t rem = n % multiple;
  return rem == 0 ? n : n + (multiple - rem);
}

std::size_t pad_dimension_for_recursion(std::size_t n, std::size_t max_base) {
  if (max_base == 0) {
    throw std::invalid_argument("pad_dimension_for_recursion: max_base == 0");
  }
  if (n <= max_base) return n;
  // Find the smallest base * 2^k >= n with base <= max_base: halve n
  // (rounding up) until it fits in the base case, then scale back up.
  std::size_t levels = 0;
  std::size_t m = n;
  while (m > max_base) {
    m = (m + 1) / 2;
    ++levels;
  }
  return m << levels;
}

}  // namespace capow::linalg
